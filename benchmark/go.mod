module github.com/wasp-stream/wasp/benchmark

go 1.22

require github.com/wasp-stream/wasp v0.0.0

replace github.com/wasp-stream/wasp => ../
