package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// A snapshot is the gob encoding of a map from window start to windowState
// (topkWindow for WindowTopK) — the wire shape these operators have always
// had, so a snapshot of any age restores. encoding/gob writes a Go map in
// the map's iteration order, which differs from one call to the next; the
// store has no map to iterate, and mapWriter lays the same wire bytes down
// with the entries in (window start, key) order. Restoring decodes into the
// two types below with the stock decoder and files every entry under its
// key's slot.

// windowState is the wire form of one WindowAggregate or
// SlidingWindowAggregate window.
type windowState struct {
	MaxTime vclock.Time
	Accs    map[string]any
}

// topkWindow is the wire form of one WindowTopK window: Counts maps
// group → topic → count.
type topkWindow struct {
	MaxTime vclock.Time
	Counts  map[string]map[string]int64
}

// mapWriter builds a gob stream by hand around the stock encoder. The
// encoder supplies what depends on Go types — the type definitions, and the
// encoding of accumulators held in interfaces — and the writer supplies
// what depends on order: a gob map is a count followed by key/value pairs,
// a struct a list of (field-number delta, value) closed by a zero, and an
// integer a byte, or a negated byte count and big-endian bytes.
type mapWriter struct {
	enc  *gob.Encoder
	pipe bytes.Buffer // what enc wrote and take has not yet read
	defs bytes.Buffer // type-definition messages, in the order enc sent them
	body []byte       // the value message, after its length
}

// newMapWriter starts a stream whose value is a map from window start to *W.
// Encoding the map with no entries makes the encoder send the definitions of
// every type the map is made of, and names the map's own type id.
func newMapWriter[W any]() (*mapWriter, error) {
	w := &mapWriter{}
	w.enc = gob.NewEncoder(&w.pipe)
	value, err := w.take(map[vclock.Time]*W{})
	if err != nil {
		return nil, err
	}
	// A value message is the type id, a zero (the value is not a struct) and
	// the value; an empty map's value is the single byte of its zero count.
	w.body = append(w.body, value[:len(value)-1]...)
	// interfaces encodes a []any, whose definition is no part of the stream.
	// It is sent here, after the map's: gob numbers types per process in
	// order of first use, and the map's types keep the ids they always had.
	defs := w.defs.Len()
	if _, err := w.take([]any{}); err != nil {
		return nil, err
	}
	w.defs.Truncate(defs)
	return w, nil
}

// take encodes v and returns its value message, moving any type definition
// sent ahead of it to the stream. A definition is a message whose leading
// type id is negative. The message is valid until the next take.
//
// The value message must be the last: the stock encoder, on meeting inside an
// interface a type it has not yet described, closes the message it is in the
// middle of, definition attached, and continues the value in another. Nothing
// here can take such a value apart, and take refuses it.
func (w *mapWriter) take(v any) ([]byte, error) {
	if err := w.enc.Encode(v); err != nil {
		return nil, err
	}
	for {
		start := w.pipe.Bytes()
		size, n := gobUint(start)
		msg := start[n : n+int(size)]
		w.pipe.Next(n + int(size))
		if id, _ := gobUint(msg); id&1 == 0 { // an int's sign is its low bit
			if w.pipe.Len() > 0 {
				return nil, fmt.Errorf("%T holds, in an interface, a type that needs a gob definition of its own: such an accumulator cannot be snapshotted", v)
			}
			return msg, nil
		}
		w.defs.Write(start[:n+int(size)])
	}
}

// interfaces encodes the values as the stock encoder encodes an interface
// wherever it finds one, a map's element included — in one call, as the
// elements of a slice — and returns the encodings end to end. A value of each
// concrete type among them (of each run of one type: they are nearly always
// all of one) is first encoded on its own, which puts the type's definition —
// a struct has one, an int64 none — ahead of the value in the stream, where
// the stock encoder would have split the value to send it.
func (w *mapWriter) interfaces(values []any) ([]byte, error) {
	var last reflect.Type
	for _, v := range values {
		if t := reflect.TypeOf(v); t != nil && t != last {
			if _, err := w.take(v); err != nil {
				return nil, err
			}
			last = t
		}
	}
	value, err := w.take(values)
	if err != nil {
		return nil, err
	}
	_, n := gobUint(value) // the type id, then a zero, then the count
	_, k := gobUint(value[n+1:])
	return value[n+1+k:], nil
}

// element appends the first of the encodings interfaces returned and returns
// the rest. An interface is its concrete type's name (empty for nil, and
// then that is all), the type's id and a message of its own.
func (w *mapWriter) element(encodings []byte) []byte {
	name, n := gobUint(encodings)
	if name != 0 {
		n += int(name)
		_, k := gobUint(encodings[n:])
		n += k
		size, k := gobUint(encodings[n:])
		n += k + int(size)
	}
	w.body = append(w.body, encodings[:n]...)
	return encodings[n:]
}

func (w *mapWriter) uint(x uint64) {
	if x <= 0x7f {
		w.body = append(w.body, byte(x))
		return
	}
	var be [8]byte
	n := 0
	for v := x; v > 0; v >>= 8 {
		n++
		be[8-n] = byte(v)
	}
	w.body = append(append(w.body, byte(-n)), be[8-n:]...)
}

func (w *mapWriter) int(i int64) {
	if i < 0 {
		w.uint(uint64(^i)<<1 | 1)
	} else {
		w.uint(uint64(i) << 1)
	}
}

func (w *mapWriter) string(s string) {
	w.uint(uint64(len(s)))
	w.body = append(w.body, s...)
}

// writeWindows lays down the stream's value — the map from window start to
// window, windows in start order and every window's entries in key order —
// and returns the finished stream. value writes the value of one entry, whose
// key is written already. This is the one place that knows the shape of the
// two wire structs: MaxTime is field 0 and, like any zero field, left out at
// zero; the map of entries is field 1; a zero closes the struct.
func writeWindows[A any](out *mapWriter, s *store[A], value func(acc *A)) []byte {
	out.uint(uint64(len(s.windows)))
	for i := range s.windows {
		w := &s.windows[i]
		out.int(int64(w.start))
		delta := uint64(2)
		if w.maxTime != 0 {
			out.uint(1)
			out.int(int64(w.maxTime))
			delta = 1
		}
		out.uint(delta)
		out.uint(uint64(w.live))
		s.each(s.windows[i:i+1], func(_ *window[A], key string, acc *A) {
			out.string(key)
			value(acc)
		})
		out.uint(0)
	}
	return out.bytes()
}

// bytes returns the finished stream.
func (w *mapWriter) bytes() []byte {
	body := w.body
	w.body = w.defs.Bytes()
	w.uint(uint64(len(body)))
	return append(w.body, body...)
}

// gobUint reads an unsigned integer off the front of b and returns it with
// the number of bytes it took.
func gobUint(b []byte) (uint64, int) {
	if b[0] <= 0x7f {
		return uint64(b[0]), 1
	}
	n := int(-int8(b[0]))
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

// decodeWindows is the restoring half: the stock decoder, into the wire
// type.
func decodeWindows[W any](data []byte, what string) (map[vclock.Time]*W, error) {
	var windows map[vclock.Time]*W
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&windows); err != nil {
		return nil, fmt.Errorf("%s restore: %w", what, err)
	}
	return windows, nil
}
