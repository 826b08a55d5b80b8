package stream

import (
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// collect runs a handler over events and returns everything it emits.
func collect(h Handler, port int, events ...Event) []Event {
	var out []Event
	for _, e := range events {
		h.OnEvent(port, e, func(o Event) { out = append(out, o) })
	}
	return out
}

func flush(h Handler, wm vclock.Time) []Event {
	var out []Event
	h.OnWatermark(wm, func(o Event) { out = append(out, o) })
	return out
}

func ev(t time.Duration, key string, v any) Event {
	return Event{Time: vclock.Time(t), Key: key, Value: v}
}

func TestFilter(t *testing.T) {
	f := &Filter{Pred: func(e Event) bool { return e.Value.(int) > 10 }}
	out := collect(f, 0, ev(0, "a", 5), ev(1, "a", 15), ev(2, "b", 20))
	if len(out) != 2 || out[0].Value != 15 || out[1].Value != 20 {
		t.Fatalf("filter out = %v", out)
	}
	if got := flush(f, MaxWatermark); len(got) != 0 {
		t.Fatalf("stateless filter emitted on watermark: %v", got)
	}
}

func TestMap(t *testing.T) {
	m := &Map{Fn: func(e Event) Event {
		e.Value = e.Value.(int) * 2
		return e
	}}
	out := collect(m, 0, ev(0, "a", 3))
	if len(out) != 1 || out[0].Value != 6 {
		t.Fatalf("map out = %v", out)
	}
}

func TestUnion(t *testing.T) {
	u := &Union{}
	out := collect(u, 0, ev(0, "a", 1))
	out = append(out, collect(u, 1, ev(1, "b", 2))...)
	if len(out) != 2 {
		t.Fatalf("union out = %v", out)
	}
}

func TestEventString(t *testing.T) {
	e := ev(time.Second, "k", 7)
	if got := e.String(); got != `@1s "k"=7` {
		t.Fatalf("String = %q", got)
	}
}
