// Quickstart: build and run a small record-mode streaming pipeline with
// WASP's stream engine — a filter, a keyed 10-second windowed count, and
// a sink — over synthetic events, entirely in-process.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/wasp-stream/wasp/internal/stream"
	"github.com/wasp-stream/wasp/internal/vclock"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// Assemble: source → filter(evens) → count per key per 10 s window → sink.
	p := stream.NewPipeline()
	src := p.AddSource("numbers")
	fil := p.AddNode("evens", &stream.Filter{
		Pred: func(e stream.Event) bool { return e.Value.(int)%2 == 0 },
	})
	cnt := p.AddNode("count10s", stream.Count(10*time.Second))
	sink := p.AddSink("out")
	p.MustConnect(src, fil)
	p.MustConnect(fil, cnt)
	p.MustConnect(cnt, sink)

	// Synthesize 30 seconds of input: one event per 100 ms, keyed by
	// parity-of-hundreds, valued 0..299.
	var input []stream.Event
	for i := 0; i < 300; i++ {
		input = append(input, stream.Event{
			Time:  vclock.Time(i) * vclock.Time(100*time.Millisecond),
			Key:   fmt.Sprintf("k%d", i/100),
			Value: i,
		})
	}

	// Run with a 1-second watermark cadence; windows flush as event time
	// passes their end.
	if err := p.Run(stream.Inputs{src: input}, stream.RunConfig{WatermarkEvery: time.Second}); err != nil {
		return err
	}

	fmt.Println("windowed even-number counts (key, window max event time, count):")
	for _, e := range p.SinkEvents(sink) {
		fmt.Printf("  %-3s @%6s  %d\n", e.Key, time.Duration(e.Time).Round(100*time.Millisecond), e.Value)
	}
	return nil
}
