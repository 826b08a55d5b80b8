package stream

import (
	"bytes"
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
		"count": Count(time.Second),
		"topk":  &WindowTopK{Size: time.Second, K: 1},
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
	topic := func(e Event) string { return e.Value.(string) }
	for name, c := range map[string]struct{ got, want windowed }{
		"count": {Count(time.Second), &refWindowAggregate{Size: time.Second}},
		"topk":  {&WindowTopK{Size: time.Second, K: 2, TopicFn: topic}, &refWindowTopK{Size: time.Second, K: 2, TopicFn: topic}},
		"topk by id": {&WindowTopK{Size: time.Second, K: 2, TopicRef: func(e Event) (string, uint32) {
			var id uint32
			fmt.Sscan(e.Value.(string)[1:], &id)
			return e.Value.(string), id + 1
		}}, &refWindowTopK{Size: time.Second, K: 2, TopicFn: topic}},
	} {
		got, want := c.got, c.want
		// The most keys the live windows can hold: every window's own and the
		// recurring three, in the one window an event is live in.
		bound := max(forgetMin, 4*(perWindow+3)) + perWindow + 3
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
func fiftyKeys() (*WindowAggregate, *WindowTopK) {
	c, k := Count(10*time.Second), &WindowTopK{Size: 10 * time.Second, K: 3}
	for i := 0; i < 400; i++ {
		// Keys arrive in an order that is not their sorted one.
		e := Event{Time: vclock.Time(i%4) * vclock.Time(7*time.Second), Key: fmt.Sprint("c", (i*37)%50), Value: i % 5}
		c.OnEvent(0, e, nil)
		k.OnEvent(0, e, nil)
	}
	return c, k
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
	c, k := fiftyKeys()
	c2, k2 := fiftyKeys()
	for _, p := range []struct {
		name string
		a, b Snapshotter
	}{{"count", c, c2}, {"topk", k, k2}} {
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

// FuzzSnapshotRestore feeds arbitrary bytes to the restore of every
// Snapshotter. A restore never panics, and whatever one accepts, the
// operator snapshots to bytes that restore and snapshot to themselves.
func FuzzSnapshotRestore(f *testing.F) {
	ops := []struct {
		name  string
		fresh func() Snapshotter
	}{
		{"count", func() Snapshotter { return Count(time.Second) }},
		{"topk", func() Snapshotter { return &WindowTopK{Size: time.Second, K: 2} }},
	}
	// Each operator seeds the corpus three times: empty, holding twelve
	// events across four windows, and with its first two windows flushed.
	for _, op := range ops {
		for _, fill := range []struct {
			events int
			wm     vclock.Time
		}{{0, 0}, {12, 0}, {12, vclock.Time(2 * time.Second)}} {
			s := op.fresh()
			for i := 0; i < fill.events; i++ {
				s.(Handler).OnEvent(0, ev(time.Duration(i)*300*time.Millisecond, fmt.Sprint("k", i%3), fmt.Sprint("t", i%4)), func(Event) {})
			}
			s.(Handler).OnWatermark(fill.wm, func(Event) {})
			data, err := s.SnapshotState()
			if err != nil {
				f.Fatalf("%s: %v", op.name, err)
			}
			f.Add(data)
		}
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
			wire([]wireWindow[int64]{{Keys: two, Vals: []int64{1, 2}}}),
			wire([]wireWindow[int64]{{Keys: two, Vals: []int64{1}}})},
		"topk": {&WindowTopK{Size: time.Second, K: 1},
			wire([]wireWindow[wireTopics]{{Keys: two, Vals: make([]wireTopics, 2)}}),
			wire([]wireWindow[wireTopics]{{Keys: one, Vals: []wireTopics{{Topics: one}}}})},
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
