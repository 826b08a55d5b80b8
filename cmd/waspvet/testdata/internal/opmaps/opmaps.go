// Package opmaps is the OpID-map audit fixture: maps keyed by plan.OpID
// under a named type and in a make call, and two that are not: one keyed
// by int and a slice indexed by OpID.
package opmaps

import "github.com/wasp-stream/wasp/internal/plan"

// Rates is keyed by OpID.
type Rates map[plan.OpID]float64

// Owners is keyed by int, valued by OpID.
var Owners = map[int]plan.OpID{}

// Count tallies ids into a map keyed by OpID and a slice indexed by it.
func Count(ids []plan.OpID) (map[plan.OpID]int, []int) {
	n := make(map[plan.OpID]int)
	dense := make([]int, len(ids))
	for _, id := range ids {
		n[id]++
		dense[id]++
	}
	return n, dense
}
