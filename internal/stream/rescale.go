package stream

import (
	"fmt"

	"github.com/wasp-stream/wasp/internal/state"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Record-mode state rescaling: when WASP scales a stateful operator from p
// to p′ tasks, each task's keyed state is re-partitioned by key hash
// (§4.2, §8.7.2). These helpers implement the split and merge halves of
// that re-partitioning for the engine's stateful operators, so that a
// scaled operator group produces byte-identical results to the original.

// SplitByKey partitions the aggregate's live state across n fresh
// operators (sharing this operator's configuration): every (window, key)
// accumulator moves to partition state.PartitionKey(key, n). The receiver
// is left empty.
func (w *WindowAggregate) SplitByKey(n int) []*WindowAggregate {
	if n < 1 {
		panic(fmt.Sprintf("stream: SplitByKey(%d)", n))
	}
	parts := make([]*WindowAggregate, n)
	for i := range parts {
		parts[i] = &WindowAggregate{
			Size: w.Size, Init: w.Init, Add: w.Add, Result: w.Result,
			windows: make(map[vclock.Time]*windowState),
		}
	}
	for start, ws := range w.windows {
		for key, acc := range ws.Accs {
			p := parts[state.PartitionKey(key, n)]
			pws := p.windows[start]
			if pws == nil {
				pws = newWindowState(ws.MaxTime)
				p.windows[start] = pws
			}
			if ws.MaxTime > pws.MaxTime {
				pws.MaxTime = ws.MaxTime
			}
			pws.Accs[key] = acc
		}
	}
	w.windows = make(map[vclock.Time]*windowState)
	return parts
}

// Merge absorbs another aggregate's state (e.g. when scaling down). The
// two must hold disjoint keys per window — the invariant hash
// partitioning guarantees; a collision returns an error and leaves the
// receiver partially merged.
func (w *WindowAggregate) Merge(other *WindowAggregate) error {
	if w.windows == nil {
		w.windows = make(map[vclock.Time]*windowState)
	}
	for start, ows := range other.windows {
		ws := w.windows[start]
		if ws == nil {
			ws = newWindowState(ows.MaxTime)
			w.windows[start] = ws
		}
		if ows.MaxTime > ws.MaxTime {
			ws.MaxTime = ows.MaxTime
		}
		for key, acc := range ows.Accs {
			if _, exists := ws.Accs[key]; exists {
				return fmt.Errorf("stream: merge collision on key %q in window %v", key, start)
			}
			ws.Accs[key] = acc
		}
	}
	other.windows = make(map[vclock.Time]*windowState)
	return nil
}

// SplitByKey partitions the top-k operator's live per-group counters
// across n fresh operators by group key hash. The receiver is left empty.
func (t *WindowTopK) SplitByKey(n int) []*WindowTopK {
	if n < 1 {
		panic(fmt.Sprintf("stream: SplitByKey(%d)", n))
	}
	parts := make([]*WindowTopK, n)
	for i := range parts {
		parts[i] = &WindowTopK{
			Size: t.Size, K: t.K, TopicFn: t.TopicFn,
			windows: make(map[vclock.Time]*topkWindow),
		}
	}
	for start, w := range t.windows {
		for group, counts := range w.Counts {
			p := parts[state.PartitionKey(group, n)]
			pw := p.windows[start]
			if pw == nil {
				pw = newTopKWindow(w.MaxTime)
				p.windows[start] = pw
			}
			if w.MaxTime > pw.MaxTime {
				pw.MaxTime = w.MaxTime
			}
			pw.Counts[group] = counts
		}
	}
	t.windows = make(map[vclock.Time]*topkWindow)
	return parts
}

// Merge absorbs another top-k operator's counters. Unlike keyed
// accumulators, topic counts are additive, so overlapping groups merge by
// summation (partial counts from different tasks combine correctly).
func (t *WindowTopK) Merge(other *WindowTopK) {
	if t.windows == nil {
		t.windows = make(map[vclock.Time]*topkWindow)
	}
	for start, ow := range other.windows {
		w := t.windows[start]
		if w == nil {
			w = newTopKWindow(ow.MaxTime)
			t.windows[start] = w
		}
		if ow.MaxTime > w.MaxTime {
			w.MaxTime = ow.MaxTime
		}
		for group, counts := range ow.Counts {
			dst := w.Counts[group]
			if dst == nil {
				dst = make(map[string]int64, len(counts))
				w.Counts[group] = dst
			}
			for topic, c := range counts {
				dst[topic] += c
			}
		}
	}
	other.windows = make(map[vclock.Time]*topkWindow)
}
