// Package detutil provides deterministic iteration helpers.
//
// Go map iteration order is randomised per run; any map range whose body
// has an order-sensitive effect (appending to a slice, accumulating
// floats, writing a timeline or exporter) silently breaks the
// same-seed/byte-identical guarantee the simulator is built on. This
// package is the sanctioned way to walk a map: take the keys, sort them,
// iterate the sorted slice. The `waspvet` maprange check (see
// internal/analysis) flags raw order-sensitive map ranges and points
// here.
package detutil

import (
	"cmp"
	"sort"
)

// SortedKeys returns m's keys in ascending order.
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m { //waspvet:unordered keys are sorted before return; this is the sanctioned helper
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// SortedKeysFunc returns m's keys sorted by the given strict-weak less
// function — for struct keys with no natural order.
func SortedKeysFunc[M ~map[K]V, K comparable, V any](m M, less func(a, b K) bool) []K {
	keys := make([]K, 0, len(m))
	for k := range m { //waspvet:unordered keys are sorted before return; this is the sanctioned helper
		keys = append(keys, k)
	}
	sort.SliceStable(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	return keys
}
