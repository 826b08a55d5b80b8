package stream

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

func TestWindowJoinMatchesWithinWindow(t *testing.T) {
	j := &WindowJoin{Size: 10 * time.Second}
	var out []Event
	emit := func(e Event) { out = append(out, e) }

	j.OnEvent(0, ev(1*time.Second, "k", "L1"), emit)
	if len(out) != 0 {
		t.Fatalf("unmatched left emitted %v", out)
	}
	j.OnEvent(1, ev(2*time.Second, "k", "R1"), emit)
	if len(out) != 1 {
		t.Fatalf("join out = %v, want 1", out)
	}
	pair := out[0].Value.([2]any)
	if pair[0] != "L1" || pair[1] != "R1" {
		t.Fatalf("joined pair = %v", pair)
	}
	if out[0].Time != vclock.Time(2*time.Second) {
		t.Fatalf("join time = %v, want max(1s,2s)", out[0].Time)
	}
	// Another left joins the buffered right.
	j.OnEvent(0, ev(3*time.Second, "k", "L2"), emit)
	if len(out) != 2 {
		t.Fatalf("second join missing: %v", out)
	}
}

func TestWindowJoinRespectsKeyAndWindow(t *testing.T) {
	j := &WindowJoin{Size: 10 * time.Second}
	var out []Event
	emit := func(e Event) { out = append(out, e) }
	j.OnEvent(0, ev(1*time.Second, "a", 1), emit)
	j.OnEvent(1, ev(2*time.Second, "b", 2), emit)  // different key
	j.OnEvent(1, ev(12*time.Second, "a", 3), emit) // different window
	if len(out) != 0 {
		t.Fatalf("cross-key/window join emitted %v", out)
	}
}

func TestWindowJoinMergeFn(t *testing.T) {
	j := &WindowJoin{
		Size:  time.Second,
		Merge: func(l, r Event) any { return l.Value.(int) + r.Value.(int) },
	}
	var out []Event
	j.OnEvent(0, ev(0, "k", 2), func(e Event) { out = append(out, e) })
	j.OnEvent(1, ev(0, "k", 3), func(e Event) { out = append(out, e) })
	if len(out) != 1 || out[0].Value != 5 {
		t.Fatalf("merge out = %v", out)
	}
}

func TestWindowJoinEviction(t *testing.T) {
	j := &WindowJoin{Size: 10 * time.Second}
	noEmit := func(Event) {}
	j.OnEvent(0, ev(1*time.Second, "k", "old"), noEmit)
	if j.StateSize() != 1 {
		t.Fatalf("StateSize = %d", j.StateSize())
	}
	j.OnWatermark(vclock.Time(10*time.Second), noEmit)
	if j.StateSize() != 0 {
		t.Fatalf("state not evicted: %d", j.StateSize())
	}
	// A right event in the next window must not match the evicted left.
	var out []Event
	j.OnEvent(1, ev(11*time.Second, "k", "new"), func(e Event) { out = append(out, e) })
	if len(out) != 0 {
		t.Fatalf("evicted state matched: %v", out)
	}
}

func TestWindowJoinSnapshotRestore(t *testing.T) {
	j := &WindowJoin{Size: 10 * time.Second}
	noEmit := func(Event) {}
	j.OnEvent(0, ev(1*time.Second, "k", "L"), noEmit)
	snap, err := j.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	j2 := &WindowJoin{Size: 10 * time.Second}
	if err := j2.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	var out []Event
	j2.OnEvent(1, ev(2*time.Second, "k", "R"), func(e Event) { out = append(out, e) })
	if len(out) != 1 {
		t.Fatalf("restored join did not match: %v", out)
	}
}

// TestJoinSnapshotIsStable: the same join state gives the same bytes, and a
// restored join snapshots to the bytes it was restored from.
func TestJoinSnapshotIsStable(t *testing.T) {
	j := &WindowJoin{Size: 10 * time.Second}
	for i := 0; i < 200; i++ {
		j.OnEvent(i%2, ev(time.Duration(i%30)*time.Second, fmt.Sprint("k", (i*37)%50), i), func(Event) {})
	}
	first, err := j.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if again, _ := j.SnapshotState(); !bytes.Equal(again, first) {
			t.Fatalf("snapshot %d of one unchanged join differs from the first", i+2)
		}
	}
	back := &WindowJoin{Size: 10 * time.Second}
	if err := back.RestoreState(first); err != nil {
		t.Fatal(err)
	}
	if again, err := back.SnapshotState(); err != nil || !bytes.Equal(again, first) {
		t.Errorf("snapshot, restore, snapshot changed the bytes (%v)", err)
	}
}

func TestWindowJoinBadPortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("port 2 did not panic")
		}
	}()
	j := &WindowJoin{Size: time.Second}
	j.OnEvent(2, ev(0, "k", nil), func(Event) {})
}

func TestTopKFunction(t *testing.T) {
	counts := map[string]int64{"a": 5, "b": 9, "c": 5, "d": 1}
	got := TopK(counts, 3)
	want := []TopicCount{{"b", 9}, {"a", 5}, {"c", 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK = %v, want %v", got, want)
	}
	if got := TopK(counts, 10); len(got) != 4 {
		t.Fatalf("TopK with k>n = %v", got)
	}
}

func TestWindowTopK(t *testing.T) {
	tk := &WindowTopK{
		Size:    30 * time.Second,
		K:       2,
		TopicFn: func(e Event) string { return e.Value.(string) },
	}
	events := []Event{
		ev(1*time.Second, "us", "go"),
		ev(2*time.Second, "us", "go"),
		ev(3*time.Second, "us", "rust"),
		ev(4*time.Second, "us", "java"),
		ev(5*time.Second, "fr", "go"),
	}
	collect(tk, 0, events...)
	out := flush(tk, vclock.Time(30*time.Second))
	if len(out) != 2 {
		t.Fatalf("topk groups = %v, want fr and us", out)
	}
	// Groups sorted: fr first.
	if out[0].Key != "fr" {
		t.Fatalf("first group = %q, want fr", out[0].Key)
	}
	us := out[1].Value.([]TopicCount)
	want := []TopicCount{{"go", 2}, {"java", 1}}
	if !reflect.DeepEqual(us, want) {
		t.Fatalf("us topk = %v, want %v", us, want)
	}
	// Window max event time.
	if out[1].Time != vclock.Time(5*time.Second) {
		t.Fatalf("topk time = %v, want 5s", out[1].Time)
	}
	if tk.StateSize() != 0 {
		t.Fatalf("state remains: %d", tk.StateSize())
	}
}

func TestWindowTopKSnapshotRestore(t *testing.T) {
	mk := func() *WindowTopK {
		return &WindowTopK{Size: 30 * time.Second, K: 1, TopicFn: func(e Event) string { return e.Value.(string) }}
	}
	a := mk()
	collect(a, 0, ev(1*time.Second, "us", "go"), ev(2*time.Second, "us", "go"), ev(3*time.Second, "us", "c"))
	snap, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	b := mk()
	if err := b.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	outA := flush(a, MaxWatermark)
	outB := flush(b, MaxWatermark)
	if !reflect.DeepEqual(outA, outB) {
		t.Fatalf("restored topk %v != original %v", outB, outA)
	}
}

func TestWindowTopKDefaultTopicFn(t *testing.T) {
	tk := &WindowTopK{Size: time.Second, K: 1}
	collect(tk, 0, ev(0, "g", 42))
	out := flush(tk, MaxWatermark)
	if len(out) != 1 {
		t.Fatal("no output")
	}
	tc := out[0].Value.([]TopicCount)
	if tc[0].Topic != "42" {
		t.Fatalf("default topic = %q", tc[0].Topic)
	}
}
