// Package caller is the outside package of the option-audit fixture.
package caller

import "github.com/wasp-stream/wasp/cmd/waspvet/testdata/internal/knobs"

// Use sets Literal directly and ViaCtor through the constructor.
func Use() knobs.Config {
	cfg := knobs.Default(7)
	cfg.Literal = 1
	return cfg
}
