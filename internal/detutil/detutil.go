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

// KV is one map entry.
type KV[K comparable, V any] struct {
	K K
	V V
}

// SortedItems returns m's entries ordered by ascending key.
func SortedItems[M ~map[K]V, K cmp.Ordered, V any](m M) []KV[K, V] {
	items := make([]KV[K, V], 0, len(m))
	for k, v := range m { //waspvet:unordered items are sorted before return; this is the sanctioned helper
		items = append(items, KV[K, V]{K: k, V: v})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].K < items[j].K })
	return items
}
