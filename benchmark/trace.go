package main

import (
	"fmt"
	"time"
)

// span is one traced interval. Spans are recorded from this package, around
// its calls into each layer, kept in memory and written out at exit.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Cell   int    `json:"cell"`   // work-list index, -1 outside any cell
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records a tree of spans; begin and end nest like calls.
type tracer struct {
	spans []span
	open  []int // IDs of the spans not yet ended, outermost first
	cell  int
}

func newTracer() *tracer { return &tracer{cell: -1} }

func (t *tracer) begin(name string) {
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cell: t.cell, Name: name, Start: int64(now())})
	t.open = append(t.open, id)
}

func (t *tracer) end() time.Duration {
	s := &t.spans[t.open[len(t.open)-1]-1]
	t.open = t.open[:len(t.open)-1]
	s.End = int64(now())
	return s.duration()
}

// in records fn as a span.
func (t *tracer) in(name string, fn func()) time.Duration {
	t.begin(name)
	fn()
	return t.end()
}

// micros returns the durations of every span with the name, in µs.
func (t *tracer) micros(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].duration())/1e3)
		}
	}
	return out
}

// total sums the durations of every span with the name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for i := range t.spans {
		if t.spans[i].Name == name {
			sum += t.spans[i].duration()
		}
	}
	return sum
}

// selfTimes returns each span's duration minus the part its children cover,
// indexed like t.spans.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].duration()
		if p := t.spans[i].Parent; p > 0 {
			self[p-1] -= t.spans[i].duration()
		}
	}
	return self
}

// selfTotal sums the self time of every span with the name.
func (t *tracer) selfTotal(name string) time.Duration {
	var total time.Duration
	for i, d := range t.selfTimes() {
		if t.spans[i].Name == name {
			total += d
		}
	}
	return total
}

// selfShares is each span name's self time as a share of all spans' self time:
// where a traced run spent its time, layer by layer.
func (t *tracer) selfShares() map[string]float64 {
	self := t.selfTimes()
	var all time.Duration
	byName := map[string]time.Duration{}
	for i := range t.spans {
		if t.spans[i].Parent == 0 {
			continue // the root's self time is the benchmark's own bookkeeping
		}
		byName[t.spans[i].Name] += self[i]
		all += self[i]
	}
	shares := make(map[string]float64, len(byName))
	for name, d := range byName {
		shares[name] = float64(d) / float64(all)
	}
	return shares
}

// checkCells verifies the span tree: within every cell span, the self times
// of the cell and its descendants must add up to the cell's duration within
// 1 %, which fails when a child ends after its parent or spans overlap.
func (t *tracer) checkCells() error {
	self := t.selfTimes()
	root := make([]int, len(t.spans)) // index of the enclosing cell span, -1 if none
	sum := map[int]time.Duration{}
	for i := range t.spans {
		switch p := t.spans[i].Parent; {
		case t.spans[i].Name == "cell":
			root[i] = i
		case p > 0:
			root[i] = root[p-1]
		default:
			root[i] = -1
		}
		if t.spans[i].End != 0 && self[i] < 0 {
			return fmt.Errorf("span %d %q: children outlast it by %v", t.spans[i].ID, t.spans[i].Name, -self[i])
		}
		if root[i] >= 0 {
			sum[root[i]] += self[i]
		}
	}
	for i := range t.spans {
		if t.spans[i].Name != "cell" {
			continue
		}
		d := t.spans[i].duration()
		if diff := (sum[i] - d).Abs(); float64(diff) > 0.01*float64(d) {
			return fmt.Errorf("cell %d: self times sum to %v, span lasts %v", t.spans[i].Cell, sum[i], d)
		}
	}
	return nil
}

func (t *tracer) write(path string) error {
	if len(t.open) > 0 {
		return fmt.Errorf("trace: %d spans still open", len(t.open))
	}
	return writeJSON(path, t.spans)
}
