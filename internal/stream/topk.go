package stream

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// TopicCount is one entry of a top-k result: a topic and its event count
// within the window.
type TopicCount struct {
	Topic string
	Count int64
}

// WindowTopK computes, per tumbling window and per group (the event key —
// e.g. a country), the K most frequent topics. This is the paper's Top-K
// Popular Topics query core (Table 3).
//
// Ties are broken by lexicographically smaller topic, so results are
// deterministic. Emitted events have Key = group, Value = []TopicCount,
// and Time = the window's maximum observed event time (see
// WindowAggregate). WindowTopK is stateful and implements Snapshotter.
//
// State is indexed twice by dense slot: a window holds one counter row per
// group, a row one counter per topic. Groups get their slots as keys do in
// WindowAggregate, through the event's KeyID when it has one; topics get
// theirs from a table of the operator's own, which TopicFn's strings are
// looked up in and TopicRef's ids index.
type WindowTopK struct {
	// Size is the tumbling window length (must be > 0).
	Size time.Duration
	// K is how many topics to report per group.
	K int
	// TopicFn extracts the counted topic from an event. If nil, the
	// event's Value is formatted as the topic.
	TopicFn func(Event) string
	// TopicRef, when set, is used in place of TopicFn and also returns the
	// topic's dense id (0 for none), which is held to the topic string as an
	// event's KeyID is to its Key: one id naming two topics panics.
	TopicRef func(Event) (topic string, id uint32)

	groups store[topicRow]
	topics symtab
}

var (
	_ Handler     = (*WindowTopK)(nil)
	_ Snapshotter = (*WindowTopK)(nil)
)

// topicRow is one (window, group) accumulator: a count per topic slot. A
// topic is in the row where its count is not zero, so a zero count — which
// counting cannot produce, only a snapshot made by hand — is no entry.
type topicRow struct {
	counts []int64
	live   int
}

// add adds n to the topic's count. Topics arrive one new slot at a time, so
// a row grows by doubling; what lies between its length and its capacity has
// never been written and is zero.
func (r *topicRow) add(topic int32, n int64) {
	if need := int(topic) + 1; need > cap(r.counts) {
		r.counts = append(make([]int64, 0, 2*need), r.counts...)[:need]
	} else if need > len(r.counts) {
		r.counts = r.counts[:need]
	}
	was := r.counts[topic]
	r.counts[topic] = was + n
	switch {
	case was == 0 && n != 0:
		r.live++
	case was != 0 && was+n == 0:
		r.live--
	}
}

// OnEvent implements Handler.
func (t *WindowTopK) OnEvent(_ int, e Event, emit Emit) {
	topic := t.topics.slot(t.topic(e))
	w := t.groups.tumbling(e.Time, t.Size)
	c := w.at(t.groups.keys.slot(e.KeyID, e.Key))
	w.claim(c)
	c.acc.add(topic, 1)
}

func (t *WindowTopK) topic(e Event) (id uint32, topic string) {
	switch {
	case t.TopicRef != nil:
		topic, id = t.TopicRef(e)
		return id, topic
	case t.TopicFn != nil:
		return 0, t.TopicFn(e)
	}
	return 0, fmt.Sprint(e.Value)
}

// OnWatermark implements Handler: completed windows emit one event per
// group carrying its top-K topics.
func (t *WindowTopK) OnWatermark(wm vclock.Time, emit Emit) {
	var used []bool
	if t.topics.overgrown() && t.groups.due(wm, t.Size) > 0 {
		used = t.topicsInUse()
	}
	t.groups.flush(wm, t.Size, func(w *window[topicRow], group string, row *topicRow) {
		emit(Event{Time: w.maxTime, Key: group, Value: t.rank(row)})
	})
	if used != nil {
		if to := t.topics.forget(used); to != nil {
			t.renumberTopics(to)
		}
	}
}

// topicsInUse marks the topic slots some row counts under: the topic table
// forgets as the group table does (see store.flush), with rows for windows.
func (t *WindowTopK) topicsInUse() []bool {
	used := make([]bool, len(t.topics.names))
	t.eachRow(func(row *topicRow) {
		for topic, n := range row.counts {
			if n != 0 {
				used[topic] = true
			}
		}
	})
	return used
}

// renumberTopics moves every count to the slot forget gave its topic.
func (t *WindowTopK) renumberTopics(to []int32) {
	t.eachRow(func(row *topicRow) {
		var moved topicRow
		for topic, n := range row.counts {
			if n != 0 {
				moved.add(to[topic], n)
			}
		}
		*row = moved
	})
}

// eachRow visits the row of every live (window, group).
func (t *WindowTopK) eachRow(fn func(*topicRow)) {
	for i := range t.groups.windows {
		cells := t.groups.windows[i].cells
		for slot := range cells {
			if cells[slot].live {
				fn(&cells[slot].acc)
			}
		}
	}
}

// compareTopics orders by count, highest first, ties broken by topic name
// ascending.
func compareTopics(a, b TopicCount) int {
	return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Topic, b.Topic))
}

// rank returns the row's K first topics in compareTopics order (none for a K
// below one). It keeps the best K met so far in order: a row of n topics
// costs n comparisons with the K-th and an insertion for those that beat it.
func (t *WindowTopK) rank(row *topicRow) []TopicCount {
	top := make([]TopicCount, 0, max(0, min(t.K, row.live)))
	for topic, n := range row.counts {
		if n == 0 {
			continue
		}
		c := TopicCount{Topic: t.topics.names[topic], Count: n}
		if len(top) == cap(top) {
			if len(top) == 0 || compareTopics(c, top[len(top)-1]) > 0 {
				continue
			}
			top = top[:len(top)-1]
		}
		at, _ := slices.BinarySearchFunc(top, c, compareTopics)
		top = slices.Insert(top, at, c)
	}
	return top
}

// StateSize returns the number of live (window, group, topic) counters.
func (t *WindowTopK) StateSize() int {
	total := 0
	t.eachRow(func(row *topicRow) { total += row.live })
	return total
}

// wireTopics is the snapshot of one (window, group) row: its topics in
// ascending order beside their counts.
type wireTopics struct {
	Topics []string
	Counts []int64
}

// SnapshotState implements Snapshotter: windows, groups and topics are
// written in ascending order, so the same state gives the same bytes.
func (t *WindowTopK) SnapshotState() ([]byte, error) {
	return snapshotStore(&t.groups, "topk", func(row *topicRow) wireTopics {
		w := wireTopics{Topics: make([]string, 0, row.live), Counts: make([]int64, 0, row.live)}
		for _, topic := range t.topics.sorted() {
			if int(topic) < len(row.counts) && row.counts[topic] != 0 {
				w.Topics = append(w.Topics, t.topics.names[topic])
				w.Counts = append(w.Counts, row.counts[topic])
			}
		}
		return w
	})
}

// RestoreState implements Snapshotter.
func (t *WindowTopK) RestoreState(data []byte) error {
	var topics symtab
	groups, err := restoreStore(data, "topk", func(row *topicRow, w wireTopics) error {
		if len(w.Topics) != len(w.Counts) {
			return fmt.Errorf("%d topics and %d counts", len(w.Topics), len(w.Counts))
		}
		for i, topic := range w.Topics {
			row.add(topics.intern(0, topic), w.Counts[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.groups, t.topics = groups, topics
	return nil
}
