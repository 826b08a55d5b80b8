// Command reach is the binary of the reachability-audit fixture.
package main

import (
	"fmt"

	"github.com/wasp-stream/wasp/cmd/waspvet/testdata/internal/reach"
)

func main() {
	fmt.Println(reach.Used(), reach.Kind(3))
}
