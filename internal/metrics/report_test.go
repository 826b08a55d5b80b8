package metrics

import (
	"reflect"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

func secs(s int) vclock.Time { return vclock.Time(s) * vclock.Time(time.Second) }

// The merger owns what it keeps: a sender that reuses a report's Ops
// buffer after Absorb — the engine's SampleSites does — changes nothing
// the merger reports, for the last report and the one before it alike.
func TestMergerCopiesReportOps(t *testing.T) {
	m := NewReportMerger()
	ops := []OpCounters{{Op: 1, Incarnation: 1, Arrived: 100, Processed: 100, InputQueueLen: 5, Tasks: 1}}
	m.Absorb(SiteReport{Site: 0, At: secs(10), Ops: ops})
	ops[0].Arrived, ops[0].Processed, ops[0].InputQueueLen = 300, 300, 7
	m.Absorb(SiteReport{Site: 0, At: secs(20), Ops: ops})
	want := m.Snapshot(secs(20))
	if got := want.Ops[1].ArrivalRate; got != 20 {
		t.Fatalf("ArrivalRate = %v; want 20 (200 events over 10s)", got)
	}
	ops[0] = OpCounters{Op: 9, Arrived: 1e9, Processed: 1e9, InputQueueLen: 1e6, Tasks: 40}
	if got := m.Snapshot(secs(20)); !reflect.DeepEqual(got, want) {
		t.Fatalf("mutating absorbed Ops changed the snapshot:\n got %+v\nwant %+v", got, want)
	}
}

// An empty first report (the idle-site heartbeat) must register the site
// as heard-from — resetting its age — while contributing nothing to the
// merged snapshot.
func TestMergerEmptyFirstReport(t *testing.T) {
	m := NewReportMerger()
	m.Absorb(SiteReport{Site: 3, At: secs(10)})

	if age, ok := m.Age(3, secs(25)); !ok || age != 15*time.Second {
		t.Fatalf("Age(3) = %v, %v; want 15s, true", age, ok)
	}
	snap := m.Snapshot(secs(25))
	if len(snap.Ops) != 0 {
		t.Fatalf("empty heartbeat produced operator samples: %+v", snap.Ops)
	}
	for _, s := range []topology.SiteID{0, 1, 2, 4} {
		if _, ok := m.Age(s, secs(25)); ok {
			t.Fatalf("site %d heard from; only site 3 reported", s)
		}
	}

	// A later real report computes rates over the full window since the
	// heartbeat (prev has no counters for the op, so deltas are absolute).
	m.Absorb(SiteReport{Site: 3, At: secs(30), Ops: []OpCounters{
		{Op: plan.OpID(1), Arrived: 400, Processed: 400, Tasks: 2},
	}})
	snap = m.Snapshot(secs(30))
	if len(snap.Ops) != 2 {
		t.Fatalf("snapshot has %d operator slots after a report naming op 1; want 2", len(snap.Ops))
	}
	s := snap.Op(1)
	// 400 events over the 20s heartbeat→report window.
	if s.ArrivalRate != 20 {
		t.Errorf("ArrivalRate = %v; want 20", s.ArrivalRate)
	}
	if s.Tasks != 2 {
		t.Errorf("Tasks = %d; want 2", s.Tasks)
	}
}

// A new incarnation means the site's group was re-created (crash and
// recovery, or a re-placement): its counters start from zero, so the
// current value is the whole delta, not a huge negative rate.
func TestMergerCounterReset(t *testing.T) {
	m := NewReportMerger()
	m.Absorb(SiteReport{Site: 0, At: secs(10), Ops: []OpCounters{
		{Op: plan.OpID(2), Incarnation: 1, Arrived: 10000, Processed: 9000},
	}})
	m.Absorb(SiteReport{Site: 0, At: secs(20), Ops: []OpCounters{
		{Op: plan.OpID(2), Incarnation: 2, Arrived: 300, Processed: 250}, // restarted from zero
	}})
	snap := m.Snapshot(secs(20))
	s := snap.Ops[plan.OpID(2)]
	if s.ArrivalRate != 30 {
		t.Errorf("ArrivalRate after reset = %v; want 30 (300 events / 10s)", s.ArrivalRate)
	}
	if s.ProcessingRate != 25 {
		t.Errorf("ProcessingRate after reset = %v; want 25", s.ProcessingRate)
	}
}

// An operator re-placed at the same site between two reports whose new
// group has already counted past the old group's total is still a
// restart: a counter that did not move backwards says nothing about
// identity, the incarnation does. The rate is the new count over the
// interval, not the difference of two unrelated counters.
func TestMergerRestartPastOldTotal(t *testing.T) {
	m := NewReportMerger()
	m.Absorb(SiteReport{Site: 4, At: secs(40), Ops: []OpCounters{
		{Op: plan.OpID(3), Incarnation: 7, Arrived: 1000, Processed: 1000, Emitted: 500},
	}})
	m.Absorb(SiteReport{Site: 4, At: secs(80), Ops: []OpCounters{
		{Op: plan.OpID(3), Incarnation: 9, Arrived: 1600, Processed: 1200, Emitted: 600},
	}})
	s := m.Snapshot(secs(80)).Ops[plan.OpID(3)]
	want := OperatorSample{ArrivalRate: 40, ProcessingRate: 30, OutputRate: 15}
	if s != want {
		t.Errorf("re-placed operator sample = %+v; want %+v (new counts / 40s)", s, want)
	}
}

// A never-reporting site is invisible: infinitely stale by Age and absent
// from snapshots — callers must not mistake "no data" for "no load".
func TestMergerNeverReportingSite(t *testing.T) {
	m := NewReportMerger()
	m.Absorb(SiteReport{Site: 1, At: secs(10), Ops: []OpCounters{
		{Op: plan.OpID(4), Arrived: 100},
	}})

	for _, s := range []topology.SiteID{7, 0, -1} {
		if _, ok := m.Age(s, secs(100)); ok {
			t.Fatalf("Age for never-reporting site %d returned ok=true", s)
		}
	}
	if age, ok := m.Age(1, secs(100)); !ok || age != 90*time.Second {
		t.Fatalf("Age(1) = %v, %v; want 90s, true", age, ok)
	}
}

// Reports reordered in flight must not move rates backwards: a report
// older than the site's last absorbed one is discarded.
func TestMergerDiscardsStaleReport(t *testing.T) {
	m := NewReportMerger()
	m.Absorb(SiteReport{Site: 2, At: secs(30), Ops: []OpCounters{
		{Op: plan.OpID(1), Arrived: 900},
	}})
	m.Absorb(SiteReport{Site: 2, At: secs(20), Ops: []OpCounters{
		{Op: plan.OpID(1), Arrived: 600}, // late arrival of an older report
	}})

	if age, ok := m.Age(2, secs(40)); !ok || age != 10*time.Second {
		t.Fatalf("Age = %v, %v; want 10s, true (stale report must not regress the clock)", age, ok)
	}
	// Still a first report: rates span the clock origin, not the stale one.
	snap := m.Snapshot(secs(40))
	if s := snap.Ops[plan.OpID(1)]; s.ArrivalRate != 30 {
		t.Errorf("ArrivalRate = %v; want 30 (900 events / 30s first-report window)", s.ArrivalRate)
	}
}

// refMerger is the map-based merger the dense one replaced, kept as the
// oracle: histories in a map keyed by site, visited through SortedKeys,
// and each previous report's operators looked up through a map.
type refMerger struct {
	sites map[topology.SiteID]*refHistory
}

type refHistory struct {
	last, prev SiteReport
	hasPrev    bool
}

func newRefMerger() *refMerger { return &refMerger{sites: map[topology.SiteID]*refHistory{}} }

func (m *refMerger) Absorb(rep SiteReport) {
	h, ok := m.sites[rep.Site]
	if !ok {
		m.sites[rep.Site] = &refHistory{last: rep}
		return
	}
	if rep.At <= h.last.At {
		return
	}
	h.prev, h.hasPrev = h.last, true
	h.last = rep
}

func (m *refMerger) Age(site topology.SiteID, now vclock.Time) (time.Duration, bool) {
	h, ok := m.sites[site]
	if !ok {
		return 0, false
	}
	return time.Duration(now - h.last.At), true
}

// refSnapshot is the reference's snapshot: a sample per reported
// operator, in a map keyed by OpID.
type refSnapshot struct {
	At  vclock.Time
	Ops map[plan.OpID]OperatorSample
}

func (m *refMerger) Snapshot(now vclock.Time) *refSnapshot {
	snap := &refSnapshot{At: now, Ops: make(map[plan.OpID]OperatorSample)}
	for _, site := range detutil.SortedKeys(m.sites) {
		h := m.sites[site]
		interval := h.last.At.Seconds()
		prevOps := map[plan.OpID]OpCounters{}
		if h.hasPrev {
			interval = (h.last.At - h.prev.At).Seconds()
			for _, oc := range h.prev.Ops {
				prevOps[oc.Op] = oc
			}
		}
		for _, oc := range h.last.Ops {
			s := snap.Ops[oc.Op]
			prev := prevOps[oc.Op]
			if prev.Incarnation != oc.Incarnation {
				prev = OpCounters{} // a re-created group counts from zero
			}
			if interval > 0 {
				s.ArrivalRate += (oc.Arrived - prev.Arrived) / interval
				s.ProcessingRate += (oc.Processed - prev.Processed) / interval
				s.OutputRate += (oc.Emitted - prev.Emitted) / interval
				s.SourceRate += (oc.Generated - prev.Generated) / interval
			}
			s.InputQueueLen += oc.InputQueueLen
			s.SendQueueLen += oc.SendQueueLen
			s.Tasks += oc.Tasks
			s.Backpressure = s.Backpressure || oc.Backpressure
			snap.Ops[oc.Op] = s
		}
	}
	return snap
}

// sameSnapshot reports whether the dense snapshot holds exactly the
// reference's samples: each reported operator's at its id, the zero sample
// at every other id, and no slot past the highest reported id.
func sameSnapshot(got *Snapshot, want *refSnapshot) bool {
	if got.At != want.At {
		return false
	}
	ids := detutil.SortedKeys(want.Ops)
	if n := len(ids); n > 0 && len(got.Ops) != int(ids[n-1])+1 || n == 0 && len(got.Ops) != 0 {
		return false
	}
	for id := range got.Ops {
		if got.Op(plan.OpID(id)) != want.Ops[plan.OpID(id)] {
			return false
		}
	}
	return true
}

// reportsFromBytes decodes a fuzz input into a report sequence. Each
// report takes a site (sparse ids up to 63), an At that may run backwards
// (reordered delivery), and up to 7 operators in ascending order, each
// with an incarnation from a small set (so restarts and continuations
// both occur), cumulative counters and gauges. A report with no operators
// is an idle-site heartbeat.
func reportsFromBytes(data []byte) []SiteReport {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var reps []SiteReport
	for len(data) > 0 {
		rep := SiteReport{
			Site: topology.SiteID(next() % 64),
			At:   vclock.Time(next()) * vclock.Time(time.Second),
		}
		nOps, op := int(next()%8), 0
		for k := 0; k < nOps; k++ {
			op += 1 + int(next()%4)
			bp := next()
			rep.Ops = append(rep.Ops, OpCounters{
				Op:            plan.OpID(op),
				Incarnation:   uint64(bp % 3),
				Arrived:       float64(next()) * 97,
				Processed:     float64(next()) * 89,
				Emitted:       float64(next()) * 0.3,
				Generated:     float64(next()) * 1e3,
				InputQueueLen: float64(next()) / 7,
				SendQueueLen:  float64(next()) * 11,
				Tasks:         int(bp>>2) % 4,
				Backpressure:  bp&0x80 != 0,
			})
		}
		reps = append(reps, rep)
	}
	return reps
}

// FuzzMergerMatchesReference holds the dense merger to the map-based
// reference: after every absorbed report, the snapshot and every site's
// age agree exactly, including out-of-order At, idle-site heartbeats,
// restarts under a new incarnation and sparse site ids. One snapshot
// refilled by SnapshotInto after every report, over whatever the last
// refill left in its storage, agrees as well.
func FuzzMergerMatchesReference(f *testing.F) {
	f.Add([]byte{3, 10, 0, 3, 30, 1, 0, 2, 40, 40, 0, 0, 0, 0})
	f.Add([]byte{0, 10, 1, 0, 1, 200, 180, 3, 0, 5, 2, 0, 20, 1, 0, 2, 100, 90, 1, 0, 1, 1})
	f.Add([]byte{63, 50, 2, 1, 0, 9, 9, 9, 9, 9, 9, 2, 1, 9, 9, 9, 9, 9, 9, 63, 40, 0, 7, 60, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := NewReportMerger(), newRefMerger()
		var now vclock.Time
		var refilled Snapshot
		for i, rep := range reportsFromBytes(data) {
			got.Absorb(rep)
			want.Absorb(rep)
			now = max(now, rep.At) + vclock.Time(time.Second)
			if g, w := got.Snapshot(now), want.Snapshot(now); !sameSnapshot(g, w) {
				t.Fatalf("after report %d: snapshot\n got %+v\nwant %+v", i, g, w)
			}
			if got.SnapshotInto(&refilled, now); !sameSnapshot(&refilled, want.Snapshot(now)) {
				t.Fatalf("after report %d: refilled snapshot\n got %+v\nwant %+v", i, refilled, want.Snapshot(now))
			}
			for s := topology.SiteID(-1); s <= 64; s++ {
				ga, gok := got.Age(s, now)
				wa, wok := want.Age(s, now)
				if ga != wa || gok != wok {
					t.Fatalf("after report %d: Age(%d) = %v, %v; want %v, %v", i, s, ga, gok, wa, wok)
				}
			}
		}
	})
}
