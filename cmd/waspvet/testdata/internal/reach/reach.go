// Package reach is the reachability-audit fixture: one declaration per way
// a declaration can be (or fail to be) reached from a binary.
package reach

import "strconv"

// Used is called by the fixture's main.
func Used() int { return 1 }

// Chained is called only by Unused, which nothing reaches.
func Chained() int { return 2 }

// Unused is called by nothing.
func Unused() int { return Chained() }

// Kind is used only through its String method, which fmt calls.
type Kind int

func (k Kind) String() string { return "kind " + strconv.Itoa(int(k)) }
