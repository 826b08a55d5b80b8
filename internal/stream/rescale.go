package stream

import (
	"fmt"

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
	for i, st := range w.state.split(n) {
		parts[i] = &WindowAggregate{Size: w.Size, state: st}
	}
	return parts
}

// Merge absorbs another aggregate's state (e.g. when scaling down). The
// two must hold disjoint keys per window — the invariant hash
// partitioning guarantees; a collision returns an error and leaves the
// receiver partially merged.
func (w *WindowAggregate) Merge(other *WindowAggregate) error {
	return w.state.merge(&other.state, func(dst *int64, had bool, src *int64, key string, start vclock.Time) error {
		if had {
			return fmt.Errorf("stream: merge collision on key %q in window %v", key, start)
		}
		*dst = *src
		return nil
	})
}

// SplitByKey partitions the top-k operator's live per-group counters
// across n fresh operators by group key hash. The receiver is left empty.
// Every part starts from a copy of the topic table, so the counter rows
// move as they are.
func (t *WindowTopK) SplitByKey(n int) []*WindowTopK {
	if n < 1 {
		panic(fmt.Sprintf("stream: SplitByKey(%d)", n))
	}
	parts := make([]*WindowTopK, n)
	for i, st := range t.groups.split(n) {
		parts[i] = &WindowTopK{
			Size: t.Size, K: t.K, TopicFn: t.TopicFn, TopicRef: t.TopicRef,
			groups: st, topics: t.topics.clone(),
		}
	}
	return parts
}

// Merge absorbs another top-k operator's counters. Unlike keyed
// accumulators, topic counts are additive, so overlapping groups merge by
// summation (partial counts from different tasks combine correctly). The
// two operators number topics independently: a row is added topic by topic,
// each under the receiver's slot for the topic's name.
func (t *WindowTopK) Merge(other *WindowTopK) {
	slotOf := make([]int32, len(other.topics.names))
	for topic, name := range other.topics.names {
		slotOf[topic] = t.topics.intern(0, name)
	}
	// The error merge passes on is absorb's, and adding cannot fail.
	_ = t.groups.merge(&other.groups, func(dst *topicRow, _ bool, src *topicRow, _ string, _ vclock.Time) error {
		for topic, n := range src.counts {
			dst.add(slotOf[topic], n)
		}
		return nil
	})
}
