package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// mustPanic runs fn and returns what it panicked with.
func mustPanic(t *testing.T, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		fn()
		t.Fatal("no panic")
	}()
	return msg
}

// TestKeyIDNamingTwoKeysPanics: an id is checked against the key string on
// every record, and one id arriving with two keys — two id spaces feeding
// one operator — stops the run naming both, in every operator and for the
// topic ids of WindowTopK.TopicRef too.
func TestKeyIDNamingTwoKeysPanics(t *testing.T) {
	ops := map[string]Handler{
		"count":   Count(time.Second),
		"sliding": SlidingCount(2*time.Second, time.Second),
		"topk":    &WindowTopK{Size: time.Second, K: 1},
	}
	for name, op := range ops {
		op.OnEvent(0, Event{Key: "us", KeyID: 3}, nil)
		op.OnEvent(0, Event{Key: "us", KeyID: 3}, nil)
		op.OnEvent(0, Event{Key: "us"}, nil)
		// A second id for a key already known is no conflict.
		op.OnEvent(0, Event{Key: "us", KeyID: 4}, nil)
		msg := mustPanic(t, func() { op.OnEvent(0, Event{Key: "jp", KeyID: 3}, nil) })
		if !strings.Contains(msg, `"us"`) || !strings.Contains(msg, `"jp"`) || !strings.Contains(msg, "3") {
			t.Errorf("%s: panic %q does not name the id and both keys", name, msg)
		}
	}
	topics := &WindowTopK{Size: time.Second, K: 1, TopicRef: func(e Event) (string, uint32) { return e.Value.(string), 7 }}
	topics.OnEvent(0, Event{Key: "us", Value: "go"}, nil)
	msg := mustPanic(t, func() { topics.OnEvent(0, Event{Key: "us", Value: "zig"}, nil) })
	if !strings.Contains(msg, `"go"`) || !strings.Contains(msg, `"zig"`) {
		t.Errorf("topic id: panic %q does not name both topics", msg)
	}
}

// TestKeyByDropsTheKeyID: events that carry the id of the key they arrive
// with (a country) and are re-keyed (to a topic) reach the keyed operators
// without it — with it, the second topic of a country is one id naming two
// keys — and count as they do in the reference, which never sees an id.
func TestKeyByDropsTheKeyID(t *testing.T) {
	countries, topics := []string{"us", "jp", "br"}, []string{"go", "zig", "c", "ml"}
	var in []Event
	for i := 0; i < 60; i++ {
		in = append(in, Event{Time: vclock.Time(i) * vclock.Time(300*time.Millisecond),
			Key: countries[i%3], KeyID: uint32(i%3 + 1), Value: topics[(i*7)%4]})
	}
	init, add := countFns()
	for name, p := range map[string][2]windowed{
		"count":   {Count(4 * time.Second), &refWindowAggregate{Size: 4 * time.Second, Init: init, Add: add}},
		"sliding": {SlidingCount(4*time.Second, 2*time.Second), &refSlidingWindowAggregate{Size: 4 * time.Second, Slide: 2 * time.Second, Init: init, Add: add}},
		"topk":    {&WindowTopK{Size: 4 * time.Second, K: 2}, &refWindowTopK{Size: 4 * time.Second, K: 2}},
	} {
		rekeyed := collect(&KeyBy{KeyFn: func(e Event) string { return e.Value.(string) }}, 0, in...)
		for i, e := range rekeyed {
			if e.KeyID != 0 || e.Key != in[i].Value {
				t.Fatalf("KeyBy emitted %v with id %d", e, e.KeyID)
			}
			p[0].OnEvent(0, e, nil)
			p[1].OnEvent(0, e, nil)
		}
		if got, want := flush(p[0], MaxWatermark), flush(p[1], MaxWatermark); len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s after KeyBy: got\n%v\nreference\n%v", name, got, want)
		}
	}
}

// TestKeyIDBeyondTheDenseBoundIsIgnored: an id too large to be dense does not
// size a table; the event is placed by its key.
func TestKeyIDBeyondTheDenseBoundIsIgnored(t *testing.T) {
	c := Count(time.Second)
	c.OnEvent(0, Event{Key: "a", KeyID: 1<<32 - 1}, nil)
	c.OnEvent(0, Event{Key: "b", KeyID: 1<<32 - 1}, nil)
	c.OnEvent(0, Event{Key: "a", KeyID: MaxKeyID}, nil)
	if n := len(c.state.keys.byID); n != 0 {
		t.Fatalf("id table grew to %d entries", n)
	}
	out := flush(c, MaxWatermark)
	want := []Event{{Key: "a", Value: int64(2)}, {Key: "b", Value: int64(1)}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
}

// tables returns the symbol tables of a production operator.
func tables(op windowed) []*symtab {
	switch op := op.(type) {
	case *WindowAggregate:
		return []*symtab{&op.state.keys}
	case *SlidingWindowAggregate:
		return []*symtab{&op.state.keys}
	case *WindowTopK:
		return []*symtab{&op.groups.keys, &op.topics}
	}
	panic("unreachable")
}

// widest returns the most cells any live window of a production operator has.
func widest(op windowed) int {
	n := 0
	switch op := op.(type) {
	case *WindowAggregate:
		for _, w := range op.state.windows {
			n = max(n, len(w.cells))
		}
	case *SlidingWindowAggregate:
		for _, w := range op.state.windows {
			n = max(n, len(w.cells))
		}
	case *WindowTopK:
		for _, w := range op.groups.windows {
			n = max(n, len(w.cells))
			for _, c := range w.cells {
				n = max(n, len(c.acc.counts))
			}
		}
	}
	return n
}

// TestStoreFollowsLiveKeys: on a stream whose keys (and topics) are mostly
// met once — a hundred new ones a window beside three that recur — the
// symbol tables, the id table's used part and every window's cells stay
// within a constant of the keys the live windows hold, where the keys ever
// met grow forty-fold; the output stays the reference's throughout, across a
// snapshot and a rescale taken mid-run, and the recurring keys' ids stay
// checked.
func TestStoreFollowsLiveKeys(t *testing.T) {
	const windows, perWindow = 40, 100
	init, add := countFns()
	jInit, jAdd, jResult := journalFns()
	topic := func(e Event) string { return e.Value.(string) }
	for name, c := range map[string]struct {
		got, want windowed
		live      int // windows an event is live in
	}{
		"count":   {Count(time.Second), &refWindowAggregate{Size: time.Second, Init: init, Add: add}, 1},
		"journal": {&WindowAggregate{Size: time.Second, Init: jInit, Add: jAdd, Result: jResult}, &refWindowAggregate{Size: time.Second, Init: jInit, Add: jAdd, Result: jResult}, 1},
		"sliding": {SlidingCount(4*time.Second, time.Second), &refSlidingWindowAggregate{Size: 4 * time.Second, Slide: time.Second, Init: init, Add: add}, 4},
		"topk":    {&WindowTopK{Size: time.Second, K: 2, TopicFn: topic}, &refWindowTopK{Size: time.Second, K: 2, TopicFn: topic}, 1},
		"topk by id": {&WindowTopK{Size: time.Second, K: 2, TopicRef: func(e Event) (string, uint32) {
			var id uint32
			fmt.Sscan(e.Value.(string)[1:], &id)
			return e.Value.(string), id + 1
		}}, &refWindowTopK{Size: time.Second, K: 2, TopicFn: topic}, 1},
	} {
		got, want := c.got, c.want
		// The most keys the live windows can hold: every window's own and the
		// recurring three, in each window an event is live in.
		bound := max(forgetMin, 4*c.live*(perWindow+3)) + perWindow + 3
		forgot := false
		for w := 0; w < windows; w++ {
			for i := 0; i < perWindow+3; i++ {
				n := w*perWindow + i
				if i >= perWindow {
					n = windows*perWindow + i // the recurring three
				}
				e := Event{Time: vclock.Time(w)*vclock.Time(time.Second) + vclock.Time(i), Key: fmt.Sprint("u", n), Value: fmt.Sprint("t", n)}
				want.OnEvent(0, e, nil)
				if w%2 == 0 || i >= perWindow {
					e.KeyID = uint32(n + 1)
				}
				got.OnEvent(0, e, nil)
			}
			switch w {
			case windows / 2:
				data, err := got.SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				if err := got.RestoreState(data); err != nil {
					t.Fatal(err)
				}
			case windows / 4:
				if agg, ok := got.(*WindowAggregate); ok {
					parts := agg.SplitByKey(3)
					for _, p := range parts[1:] {
						if err := parts[0].Merge(p); err != nil {
							t.Fatal(err)
						}
					}
					got = parts[0]
				}
			}
			before := 0
			for _, tab := range tables(got) {
				before += len(tab.names)
			}
			if n := widest(got); n > bound {
				t.Fatalf("%s: window %d has %d cells, bound %d", name, w, n, bound)
			}
			wm := vclock.Time(w+1) * vclock.Time(time.Second)
			if g, r := flush(got, wm), flush(want, wm); len(g) == 0 || !reflect.DeepEqual(g, r) {
				t.Fatalf("%s: window %d flushed\n%v\nreference\n%v", name, w, g, r)
			}
			after := 0
			for _, tab := range tables(got) {
				after += len(tab.names)
				if len(tab.names) > bound || len(tab.slots) != len(tab.names) {
					t.Fatalf("%s: after window %d a table holds %d names (%d in its map), bound %d", name, w, len(tab.names), len(tab.slots), bound)
				}
				bound := 0
				for _, at := range tab.byID {
					if at != 0 {
						bound++
					}
				}
				if bound > len(tab.names) {
					t.Fatalf("%s: after window %d %d ids are bound to %d names", name, w, bound, len(tab.names))
				}
			}
			forgot = forgot || after < before
		}
		if !forgot {
			t.Errorf("%s: no table ever shrank", name)
		}
		if g, r := got.StateSize(), want.StateSize(); g != r {
			t.Errorf("%s: StateSize %d, reference %d", name, g, r)
		}
		// A recurring key kept its id through every census.
		recurring := uint32(windows*perWindow + perWindow + 1)
		msg := mustPanic(t, func() { got.OnEvent(0, Event{Key: "other", KeyID: recurring, Value: "t0"}, nil) })
		if !strings.Contains(msg, fmt.Sprint(`"u`, recurring-1, `"`)) {
			t.Errorf("%s: id %d after the run: %s", name, recurring, msg)
		}
	}
}

// fiftyKeys fills the operators with one state each: several windows, fifty
// keys, five topics.
func fiftyKeys() (*WindowAggregate, *SlidingWindowAggregate, *WindowTopK) {
	c, s, k := Count(10*time.Second), SlidingCount(20*time.Second, 10*time.Second), &WindowTopK{Size: 10 * time.Second, K: 3}
	for i := 0; i < 400; i++ {
		// Keys arrive in an order that is not their sorted one.
		e := Event{Time: vclock.Time(i%4) * vclock.Time(7*time.Second), Key: fmt.Sprint("c", (i*37)%50), Value: i % 5}
		c.OnEvent(0, e, nil)
		s.OnEvent(0, e, nil)
		k.OnEvent(0, e, nil)
	}
	return c, s, k
}

// TestSnapshotBytesDeterministic: the same state gives the same bytes — from
// one operator twice, from two operators filled alike, and from an operator
// that was split three ways and merged back (in either order).
func TestSnapshotBytesDeterministic(t *testing.T) {
	snap := func(s Snapshotter) []byte {
		data, err := s.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	c, s, k := fiftyKeys()
	c2, s2, k2 := fiftyKeys()
	for _, p := range []struct {
		name string
		a, b Snapshotter
	}{{"count", c, c2}, {"sliding", s, s2}, {"topk", k, k2}} {
		first := snap(p.a)
		for i := 0; i < 20; i++ {
			if !bytes.Equal(snap(p.a), first) {
				t.Fatalf("%s: snapshot %d of one unchanged operator differs from the first", p.name, i+2)
			}
		}
		if !bytes.Equal(snap(p.b), first) {
			t.Errorf("%s: two operators fed the same events snapshot differently", p.name)
		}
	}

	wantCount, wantTopK := snap(c), snap(k)
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}} {
		cParts, kParts := c.SplitByKey(3), k.SplitByKey(3)
		c, k = Count(10*time.Second), &WindowTopK{Size: 10 * time.Second, K: 3}
		for _, p := range order {
			if err := c.Merge(cParts[p]); err != nil {
				t.Fatal(err)
			}
			k.Merge(kParts[p])
		}
		if !bytes.Equal(snap(c), wantCount) {
			t.Errorf("count: SplitByKey(3) and Merge in order %v changed the snapshot bytes", order)
		}
		if !bytes.Equal(snap(k), wantTopK) {
			t.Errorf("topk: SplitByKey(3) and Merge in order %v changed the snapshot bytes", order)
		}
	}
}

// snapAcc is an accumulator that is a struct: in a snapshot, a message of its
// own inside an interface, its fields by delta, one of them a slice.
type snapAcc struct {
	N     int64
	Name  string
	Parts []float64
}

// nestAcc is an accumulator that holds another in an interface.
type nestAcc struct{ V any }

func init() {
	gob.Register(snapAcc{})
	gob.Register(nestAcc{})
}

// structFns folds events into a snapAcc.
func structFns() (func() any, func(any, Event) any) {
	return func() any { return snapAcc{} }, func(acc any, e Event) any {
		a := acc.(snapAcc)
		a.N, a.Name = a.N+1, e.Key
		a.Parts = append(a.Parts[:len(a.Parts):len(a.Parts)], float64(a.N)/3)
		return a
	}
}

// TestSnapshotRoundTripsStructInInterface: an accumulator holding in an
// interface a struct, which the stock encoder defines in the middle of the
// value, snapshots and restores, and the restored operator flushes what the
// original does.
func TestSnapshotRoundTripsStructInInterface(t *testing.T) {
	hold := func(v any) *WindowAggregate {
		w := &WindowAggregate{Size: time.Second, Init: func() any { return nestAcc{} }, Add: func(any, Event) any { return nestAcc{V: v} }}
		w.OnEvent(0, Event{Key: "a"}, nil)
		w.OnEvent(0, Event{Key: "b"}, nil)
		return w
	}
	for _, v := range []any{snapAcc{N: 1, Name: "x", Parts: []float64{0.5}}, int64(7)} {
		orig := hold(v)
		data, err := orig.SnapshotState()
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		back := &WindowAggregate{Size: time.Second}
		if err := back.RestoreState(data); err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		want := []Event{{Key: "a", Value: nestAcc{V: v}}, {Key: "b", Value: nestAcc{V: v}}}
		if got := flush(back, MaxWatermark); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: restored %v, want %v", v, got, want)
		}
		if got := flush(orig, MaxWatermark); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: original %v, want %v", v, got, want)
		}
	}
}

// FuzzSnapshotRestore feeds arbitrary bytes to the restore of every
// Snapshotter. A restore never panics, and whatever one accepts, the
// operator snapshots to bytes that restore and snapshot to themselves.
func FuzzSnapshotRestore(f *testing.F) {
	zero, grow := structFns()
	ops := []struct {
		name  string
		fresh func() Snapshotter
	}{
		{"count", func() Snapshotter { return Count(time.Second) }},
		{"aggregate", func() Snapshotter { return &WindowAggregate{Size: time.Second, Init: zero, Add: grow} }},
		{"sliding count", func() Snapshotter { return SlidingCount(2*time.Second, time.Second) }},
		{"topk", func() Snapshotter { return &WindowTopK{Size: time.Second, K: 2} }},
		{"join", func() Snapshotter { return &WindowJoin{Size: time.Second} }},
	}
	for _, op := range ops {
		s := op.fresh()
		for i := 0; i < 12; i++ {
			s.(Handler).OnEvent(i%2, ev(time.Duration(i)*300*time.Millisecond, fmt.Sprint("k", i%3), fmt.Sprint("t", i%4)), func(Event) {})
		}
		data, err := s.SnapshotState()
		if err != nil {
			f.Fatalf("%s: %v", op.name, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, op := range ops {
			s := op.fresh()
			if s.RestoreState(data) != nil {
				continue
			}
			first, err := s.SnapshotState()
			if err != nil {
				t.Fatalf("%s: snapshot of a restored state: %v", op.name, err)
			}
			again := op.fresh()
			if err := again.RestoreState(first); err != nil {
				t.Fatalf("%s: its own snapshot does not restore: %v", op.name, err)
			}
			if second, err := again.SnapshotState(); err != nil || !bytes.Equal(first, second) {
				t.Fatalf("%s: snapshot, restore, snapshot changed the bytes (%v)", op.name, err)
			}
		}
	})
}

// TestRestoreRejectsMalformedWindows: a key listed twice in one window, and
// a window with more keys than values, are restore errors that leave the
// operator's state as it was.
func TestRestoreRejectsMalformedWindows(t *testing.T) {
	wire := func(v any) []byte {
		data, err := gobBytes(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one, two := []string{"a"}, []string{"a", "a"}
	for name, c := range map[string]struct {
		op           windowed
		twice, short []byte
	}{
		"count": {Count(time.Second),
			wire([]wireWindow[any]{{Keys: two, Vals: []any{int64(1), int64(2)}}}),
			wire([]wireWindow[any]{{Keys: two, Vals: []any{int64(1)}}})},
		"topk": {&WindowTopK{Size: time.Second, K: 1},
			wire([]wireWindow[wireTopics]{{Keys: two, Vals: make([]wireTopics, 2)}}),
			wire([]wireWindow[wireTopics]{{Keys: one, Vals: []wireTopics{{Topics: one}}}})},
		"join": {&WindowJoin{Size: time.Second},
			wire([]wireWindow[[2][]Event]{{Keys: one, Vals: make([][2][]Event, 1)}, {Keys: one, Vals: make([][2][]Event, 1)}}),
			wire([]wireWindow[[2][]Event]{{Keys: two}})},
	} {
		c.op.OnEvent(0, Event{Key: "b"}, nil)
		for what, data := range map[string][]byte{"key listed twice": c.twice, "keys without values": c.short} {
			if err := c.op.RestoreState(data); err == nil {
				t.Errorf("%s: %s restored", name, what)
			}
			if n := c.op.StateSize(); n != 1 {
				t.Errorf("%s: a failed restore (%s) left %d state entries, want 1", name, what, n)
			}
		}
	}
}

// TestCountMovesToAnEquivalentAggregate: Count keeps its counts unboxed, an
// aggregate built by hand from the same Init and Add keeps them in
// interfaces; state moves between the two by Merge and by snapshot, and a
// float accumulator offered to a Count is an error, not a later panic.
func TestCountMovesToAnEquivalentAggregate(t *testing.T) {
	init, add := countFns()
	byHand := func() *WindowAggregate { return &WindowAggregate{Size: time.Second, Init: init, Add: add} }
	want := []Event{{Key: "a", Value: int64(300)}, {Key: "b", Value: int64(1)}}
	fill := func(w *WindowAggregate) *WindowAggregate {
		for i := 0; i < 300; i++ {
			w.OnEvent(0, Event{Key: "a"}, nil)
		}
		w.OnEvent(0, Event{Key: "b"}, nil)
		return w
	}
	for name, c := range map[string]struct{ from, to *WindowAggregate }{
		"count into by-hand": {fill(Count(time.Second)), byHand()},
		"by-hand into count": {fill(byHand()), Count(time.Second)},
	} {
		snap, err := c.from.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.to.Merge(c.from); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c.to.OnEvent(0, Event{Key: "a"}, nil)
		if err := c.from.RestoreState(snap); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range []*WindowAggregate{c.from, c.to} {
			out := flush(w, MaxWatermark)
			if w == c.to {
				out[0].Value = out[0].Value.(int64) - 1
			}
			if !reflect.DeepEqual(out, want) {
				t.Errorf("%s: got %v, want %v", name, out, want)
			}
		}
	}
	sum := SumBy(time.Second, func(Event) float64 { return 1 })
	sum.OnEvent(0, Event{Key: "a"}, nil)
	snap, err := sum.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := Count(time.Second).RestoreState(snap); err == nil {
		t.Error("a Count restored float accumulators")
	}
	if err := Count(time.Second).Merge(sum); err == nil {
		t.Error("a Count merged float accumulators")
	}
}
