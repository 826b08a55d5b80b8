package detutil

import (
	"reflect"
	"testing"
)

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 2, "a": 1, "c": 3}
	got := SortedKeys(m)
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
	if ks := SortedKeys(map[int]bool{}); len(ks) != 0 {
		t.Fatalf("SortedKeys(empty) = %v, want empty", ks)
	}
}

func TestSortedKeysFunc(t *testing.T) {
	type key struct{ a, b int }
	m := map[key]string{
		{2, 1}: "x",
		{1, 9}: "y",
		{1, 2}: "z",
	}
	got := SortedKeysFunc(m, func(p, q key) bool {
		if p.a != q.a {
			return p.a < q.a
		}
		return p.b < q.b
	})
	want := []key{{1, 2}, {1, 9}, {2, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedKeysFunc = %v, want %v", got, want)
	}
}

func TestSortedItems(t *testing.T) {
	m := map[int]string{3: "c", 1: "a", 2: "b"}
	got := SortedItems(m)
	want := []KV[int, string]{{1, "a"}, {2, "b"}, {3, "c"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedItems = %v, want %v", got, want)
	}
}

// Two walks of the same map must observe identical order — the whole
// point of the helpers.
func TestIterationStable(t *testing.T) {
	m := map[string]int{}
	for _, k := range []string{"q", "w", "e", "r", "t", "y", "u", "i", "o", "p"} {
		m[k] = len(k)
	}
	first := SortedKeys(m)
	for i := 0; i < 32; i++ {
		if got := SortedKeys(m); !reflect.DeepEqual(got, first) {
			t.Fatalf("iteration %d differs: %v vs %v", i, got, first)
		}
	}
}
