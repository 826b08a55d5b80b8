package metrics

import (
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

func secs(s int) vclock.Time { return vclock.Time(s) * vclock.Time(time.Second) }

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
	if got := detutil.SortedKeys(m.sites); len(got) != 1 || got[0] != 3 {
		t.Fatalf("sites heard from = %v; want [3]", got)
	}

	// A later real report computes rates over the full window since the
	// heartbeat (prev has no counters for the op, so deltas are absolute).
	m.Absorb(SiteReport{Site: 3, At: secs(30), Ops: []OpCounters{
		{Op: plan.OpID(1), Arrived: 400, Processed: 400, Tasks: 2},
	}})
	snap = m.Snapshot(secs(30))
	s, ok := snap.Ops[plan.OpID(1)]
	if !ok {
		t.Fatal("op 1 missing from snapshot after real report")
	}
	// 400 events over the 20s heartbeat→report window.
	if s.ArrivalRate != 20 {
		t.Errorf("ArrivalRate = %v; want 20", s.ArrivalRate)
	}
	if s.Tasks != 2 {
		t.Errorf("Tasks = %d; want 2", s.Tasks)
	}
}

// A cumulative counter that moves backwards means the site's tasks
// restarted from zero (crash + recovery): the current value is the whole
// delta, not a huge negative rate.
func TestMergerCounterReset(t *testing.T) {
	m := NewReportMerger()
	m.Absorb(SiteReport{Site: 0, At: secs(10), Ops: []OpCounters{
		{Op: plan.OpID(2), Arrived: 10000, Processed: 9000},
	}})
	m.Absorb(SiteReport{Site: 0, At: secs(20), Ops: []OpCounters{
		{Op: plan.OpID(2), Arrived: 300, Processed: 250}, // restarted from zero
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

// A never-reporting site is invisible: infinitely stale by Age and absent
// from snapshots — callers must not mistake "no data" for "no load".
func TestMergerNeverReportingSite(t *testing.T) {
	m := NewReportMerger()
	m.Absorb(SiteReport{Site: 1, At: secs(10), Ops: []OpCounters{
		{Op: plan.OpID(4), Arrived: 100},
	}})

	if _, ok := m.Age(topology.SiteID(7), secs(100)); ok {
		t.Fatal("Age for a never-reporting site returned ok=true")
	}
	if got := detutil.SortedKeys(m.sites); len(got) != 1 || got[0] != 1 {
		t.Fatalf("sites heard from = %v; want just [1]", got)
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
