package stream

import (
	"reflect"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

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
