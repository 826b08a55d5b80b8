package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
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

// TestSnapshotRefusesWhatItCannotLayDown: an accumulator with an interface
// inside that holds a struct makes the stock encoder define the struct in the
// middle of the value. The snapshot is an error then, not a stream that will
// not restore; the same accumulator holding a number snapshots and restores.
func TestSnapshotRefusesWhatItCannotLayDown(t *testing.T) {
	hold := func(v any) *WindowAggregate {
		w := &WindowAggregate{Size: time.Second, Init: func() any { return nestAcc{} }, Add: func(any, Event) any { return nestAcc{V: v} }}
		w.OnEvent(0, Event{Key: "a"}, nil)
		w.OnEvent(0, Event{Key: "b"}, nil)
		return w
	}
	if data, err := hold(snapAcc{N: 1}).SnapshotState(); err == nil {
		t.Errorf("a struct inside an interface inside the accumulator snapshotted to %d bytes", len(data))
	}
	data, err := hold(int64(7)).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	back := &WindowAggregate{Size: time.Second}
	if err := back.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	want := []Event{{Key: "a", Value: nestAcc{V: int64(7)}}, {Key: "b", Value: nestAcc{V: int64(7)}}}
	if got := flush(back, MaxWatermark); !reflect.DeepEqual(got, want) {
		t.Errorf("restored %v, want %v", got, want)
	}
}

// TestSnapshotIsTheStockEncoding holds the hand-laid stream to encoding/gob,
// so that a Go release that changes the layout fails here and not in a
// restore. Where the stock encoder has no order to choose — one window, one
// key, one topic — the snapshot is what it writes, byte for byte: at a zero,
// a positive and a negative start, with one-byte and multi-byte lengths (a
// 300-byte key and topic, a count of 300), and with accumulators that are
// counts and nil. And whatever the state — 200 windows, 200 keys in one — the
// snapshot is as long as the stock encoding of the same maps, which holds the
// same entries in another order, and decodes to them. Accumulators that are
// structs (their message itself past one length byte) are the one case where
// the bytes differ: the type's definition goes ahead of the value, not into
// the middle of it, and the snapshot is held to what the stock decoder reads.
func TestSnapshotIsTheStockEncoding(t *testing.T) {
	init, add := countFns()
	null, keep := func() any { return nil }, func(acc any, _ Event) any { return acc }
	zero, grow := structFns()
	const structs = 2 // the pair below whose accumulators are snapAccs
	for _, at := range []vclock.Time{0, vclock.Time(3 * time.Second), vclock.Time(-3 * time.Second)} {
		for _, word := range []string{"k", strings.Repeat("long", 75)} {
			pairs := [][2]windowed{
				{Count(time.Second), &refWindowAggregate{Size: time.Second, Init: init, Add: add}},
				{&WindowAggregate{Size: time.Second, Init: null, Add: keep}, &refWindowAggregate{Size: time.Second, Init: null, Add: keep}},
				{&WindowAggregate{Size: time.Second, Init: zero, Add: grow}, &refWindowAggregate{Size: time.Second, Init: zero, Add: grow}},
				{&WindowTopK{Size: time.Second, K: 1}, &refWindowTopK{Size: time.Second, K: 1}},
			}
			for i, p := range pairs {
				for n := 0; n < 300; n++ {
					p[0].OnEvent(0, Event{Time: at, Key: word, Value: word + " topic"}, nil)
					p[1].OnEvent(0, Event{Time: at, Key: word, Value: word + " topic"}, nil)
				}
				got, err := p[0].SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				want, _ := p[1].SnapshotState()
				if i == structs {
					// The stock encoder splits the value to define snapAcc
					// where it first meets one; the snapshot defines it ahead.
					if state, err := decodeWire[windowState](got); err != nil || !reflect.DeepEqual(state, refState(p[1])) {
						t.Errorf("struct accumulators, %d-byte key at %v: the stock decoder reads other maps than the reference holds (%v)", len(word), at, err)
					}
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("pair %d, %d-byte key at %v:\n%x\nstock encoder:\n%x", i, len(word), at, got, want)
				}
			}
		}
	}
	empty, err := Count(time.Second).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := (&refWindowAggregate{windows: refWindows{}}).SnapshotState(); !bytes.Equal(empty, want) {
		t.Errorf("empty operator:\n%x\nstock encoder:\n%x", empty, want)
	}

	// wide fills an operator with 200 windows and, in one of them, 200 keys of
	// four topics each.
	wide := func(op windowed) windowed {
		for i := 0; i < 200; i++ {
			op.OnEvent(0, Event{Time: vclock.Time(i-100) * vclock.Time(time.Second), Key: "k", Value: i}, nil)
			for topic := 0; topic < 4; topic++ {
				op.OnEvent(0, Event{Key: fmt.Sprint("key", i), Value: topic}, nil)
			}
		}
		return op
	}
	c, _, k := fiftyKeys()
	for i, p := range [][3]windowed{
		{c, &refWindowAggregate{}, nil},
		{k, &refWindowTopK{}, nil},
		{wide(Count(time.Second)), &refWindowAggregate{}, wide(&refWindowAggregate{Size: time.Second, Init: init, Add: add})},
		{wide(&WindowAggregate{Size: time.Second, Init: zero, Add: grow}), &refWindowAggregate{}, wide(&refWindowAggregate{Size: time.Second, Init: zero, Add: grow})},
		{wide(&WindowTopK{Size: time.Second, K: 1}), &refWindowTopK{}, wide(&refWindowTopK{Size: time.Second, K: 1})},
	} {
		got, err := p[0].SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if err := p[1].RestoreState(got); err != nil {
			t.Fatal(err)
		}
		if want, _ := p[1].SnapshotState(); len(got) != len(want) && i != 3 { // 3: snapAccs, which the stock encoder splits the value for
			t.Errorf("case %d: snapshot is %d bytes, the stock encoding of the same maps %d", i, len(got), len(want))
		}
		if p[2] != nil && !reflect.DeepEqual(refState(p[1]), refState(p[2])) {
			t.Errorf("case %d: the stock decoder reads other maps out of the snapshot than the same events make", i)
		}
	}
}

// TestRestoreParentSnapshots restores snapshots taken by the commit before
// the store (string-keyed maps, gob-encoded in map order) and holds the
// flush to the sink that commit's own restore-and-flush produced.
func TestRestoreParentSnapshots(t *testing.T) {
	for name, c := range map[string]struct {
		op   windowed
		wire func([]byte) (any, error)
	}{
		"window_aggregate": {Count(10 * time.Second), decodeWire[windowState]},
		"window_topk":      {&WindowTopK{Size: 30 * time.Second, K: 3}, decodeWire[topkWindow]},
	} {
		op := c.op
		blob, err := os.ReadFile("testdata/" + name + ".parent.gob")
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile("testdata/" + name + ".parent.sink")
		if err != nil {
			t.Fatal(err)
		}
		if err := op.RestoreState(blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := op.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		// Type ids are numbered per process, so the two streams are compared
		// as what the stock decoder makes of them.
		theirs, err := c.wire(blob)
		if err != nil {
			t.Fatal(err)
		}
		if ours, err := c.wire(again); err != nil || !reflect.DeepEqual(ours, theirs) {
			t.Errorf("%s: a snapshot of the restored operator does not decode to the parent's maps (%v)", name, err)
		}
		var got strings.Builder
		for _, e := range flush(op, MaxWatermark) {
			fmt.Fprintln(&got, e)
		}
		if got.String() != string(want) {
			t.Errorf("%s: restored and flushed\n%s\nthe parent's sink\n%s", name, got.String(), want)
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
