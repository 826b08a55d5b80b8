// Package knobs is the option-audit fixture: one Config field per way a
// field can be (or fail to be) set from outside.
package knobs

// Config has a field an outside literal sets, one an outside call of
// Default fills, and one nobody sets.
type Config struct {
	Literal int
	ViaCtor int
	Unset   int
}

// Default stores its parameter in ViaCtor and a constant in Unset.
func Default(v int) Config {
	return Config{ViaCtor: v, Unset: 3}
}
