package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// A snapshot is the stock gob encoding of one []wireWindow[V]: the windows in
// start order, each with its keys in ascending order beside their values.
// Every collection in it is a slice, which gob writes in index order, so the
// same state gives the same bytes.

// wireWindow is one window of a snapshot: Vals[i] is the state of Keys[i].
type wireWindow[V any] struct {
	Start, MaxTime vclock.Time
	Keys           []string
	Vals           []V
}

// encodeSnapshot is the stock encoder on one value.
func encodeSnapshot(v any, what string) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("%s snapshot: %w", what, err)
	}
	return buf.Bytes(), nil
}

// decodeSnapshot is the stock decoder into windows, which it checks hold
// one value per key.
func decodeSnapshot[V any](data []byte, what string) ([]wireWindow[V], error) {
	var windows []wireWindow[V]
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&windows); err != nil {
		return nil, fmt.Errorf("%s restore: %w", what, err)
	}
	for _, w := range windows {
		if len(w.Keys) != len(w.Vals) {
			return nil, fmt.Errorf("%s restore: window %v lists %d keys and %d values", what, w.Start, len(w.Keys), len(w.Vals))
		}
	}
	return windows, nil
}

// snapshotStore encodes the windows of s, each accumulator as val gives it.
func snapshotStore[A, V any](s *store[A], what string, val func(acc *A) V) ([]byte, error) {
	windows := make([]wireWindow[V], len(s.windows))
	for i := range s.windows {
		from := &s.windows[i]
		w := wireWindow[V]{Start: from.start, MaxTime: from.maxTime,
			Keys: make([]string, 0, from.live), Vals: make([]V, 0, from.live)}
		s.each(s.windows[i:i+1], func(_ *window[A], key string, acc *A) {
			w.Keys = append(w.Keys, key)
			w.Vals = append(w.Vals, val(acc))
		})
		windows[i] = w
	}
	return encodeSnapshot(windows, what)
}

// restoreStore decodes a snapshot into a new store, each accumulator set by
// put. A key listed twice in one window is an error.
func restoreStore[A, V any](data []byte, what string, put func(acc *A, v V) error) (store[A], error) {
	windows, err := decodeSnapshot[V](data, what)
	if err != nil {
		return store[A]{}, err
	}
	var s store[A]
	for _, ww := range windows {
		w := s.window(ww.Start, ww.MaxTime)
		for i, key := range ww.Keys {
			c := w.at(s.keys.intern(0, key))
			if !w.claim(c) {
				return store[A]{}, fmt.Errorf("%s restore: key %q listed twice in window %v", what, key, ww.Start)
			}
			if err := put(&c.acc, ww.Vals[i]); err != nil {
				return store[A]{}, fmt.Errorf("%s restore: key %q: %w", what, key, err)
			}
		}
	}
	return s, nil
}
