package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// twoSite builds a minimal 2-site topology with a known 80 Mbps (=10 MB/s)
// link in each direction.
func twoSite(t *testing.T) *topology.Topology {
	t.Helper()
	sites := []topology.Site{
		{ID: 0, Name: "a", Kind: topology.DataCenter, Slots: 8},
		{ID: 1, Name: "b", Kind: topology.DataCenter, Slots: 8},
	}
	lat := [][]time.Duration{
		{time.Millisecond, 50 * time.Millisecond},
		{50 * time.Millisecond, time.Millisecond},
	}
	bw := [][]topology.Mbps{
		{10000, 80},
		{80, 10000},
	}
	top, err := topology.New(sites, lat, bw)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func step(n *Network, now vclock.Time) {
	n.Step(now, time.Second)
}

func TestCapacityStatic(t *testing.T) {
	n := New(twoSite(t))
	if got, want := n.Capacity(0, 1, 0), 10e6; got != want {
		t.Fatalf("Capacity = %v, want %v", got, want)
	}
}

func TestGlobalFactorHalvesBandwidth(t *testing.T) {
	n := New(twoSite(t))
	n.SetGlobalFactor(trace.Steps(900*time.Second, 1, 0.5))
	if got := n.Capacity(0, 1, 0); got != 10e6 {
		t.Fatalf("pre-dynamics Capacity = %v, want 1e7", got)
	}
	if got := n.Capacity(0, 1, 900*time.Second); got != 5e6 {
		t.Fatalf("post-dynamics Capacity = %v, want 5e6", got)
	}
	// Intra-site fabric must not be modulated.
	if got := n.Capacity(0, 0, 900*time.Second); got != topology.Mbps(10000).BytesPerSec() {
		t.Fatalf("intra-site Capacity modulated: %v", got)
	}
}

func TestLinkFactorComposesWithGlobal(t *testing.T) {
	n := New(twoSite(t))
	n.SetGlobalFactor(trace.Constant(0.5))
	n.SetLinkFactor(0, 1, trace.Constant(0.5))
	if got := n.Capacity(0, 1, 0); got != 2.5e6 {
		t.Fatalf("composed Capacity = %v, want 2.5e6", got)
	}
	if got := n.Capacity(1, 0, 0); got != 5e6 {
		t.Fatalf("other-direction Capacity = %v, want 5e6", got)
	}
}

func TestSingleFlowGetsItsDemand(t *testing.T) {
	n := New(twoSite(t))
	f := n.AddFlow(0, 1)
	f.SetDemand(4e6)
	step(n, time.Second)
	if got := f.Allocated(); got != 4e6 {
		t.Fatalf("Allocated = %v, want 4e6", got)
	}
}

func TestFlowCappedAtCapacity(t *testing.T) {
	n := New(twoSite(t))
	f := n.AddFlow(0, 1)
	f.SetDemand(50e6)
	step(n, time.Second)
	if got := f.Allocated(); got != 10e6 {
		t.Fatalf("Allocated = %v, want capacity 1e7", got)
	}
}

func TestMaxMinFairness(t *testing.T) {
	n := New(twoSite(t))
	small := n.AddFlow(0, 1)
	big1 := n.AddFlow(0, 1)
	big2 := n.AddFlow(0, 1)
	small.SetDemand(1e6)
	big1.SetDemand(20e6)
	big2.SetDemand(20e6)
	step(n, time.Second)
	if got := small.Allocated(); got != 1e6 {
		t.Fatalf("small flow Allocated = %v, want its demand 1e6", got)
	}
	// Remaining 9 MB/s split equally between the two big flows.
	if got := big1.Allocated(); math.Abs(got-4.5e6) > 1 {
		t.Fatalf("big1 Allocated = %v, want 4.5e6", got)
	}
	if got := big2.Allocated(); math.Abs(got-4.5e6) > 1 {
		t.Fatalf("big2 Allocated = %v, want 4.5e6", got)
	}
}

func TestFlowsOnDistinctLinksDoNotContend(t *testing.T) {
	n := New(twoSite(t))
	fwd := n.AddFlow(0, 1)
	rev := n.AddFlow(1, 0)
	fwd.SetDemand(10e6)
	rev.SetDemand(10e6)
	step(n, time.Second)
	if fwd.Allocated() != 10e6 || rev.Allocated() != 10e6 {
		t.Fatalf("directional links contended: fwd=%v rev=%v", fwd.Allocated(), rev.Allocated())
	}
}

func TestRemoveFlowFreesBandwidth(t *testing.T) {
	n := New(twoSite(t))
	a := n.AddFlow(0, 1)
	b := n.AddFlow(0, 1)
	a.SetDemand(10e6)
	b.SetDemand(10e6)
	step(n, time.Second)
	if a.Allocated() != 5e6 {
		t.Fatalf("pre-remove Allocated = %v, want 5e6", a.Allocated())
	}
	n.RemoveFlow(b)
	n.RemoveFlow(b) // double remove is a no-op
	step(n, 2*time.Second)
	if a.Allocated() != 10e6 {
		t.Fatalf("post-remove Allocated = %v, want 1e7", a.Allocated())
	}
	if b.Allocated() != 0 {
		t.Fatalf("removed flow Allocated = %v, want 0", b.Allocated())
	}
}

func TestTransferCompletes(t *testing.T) {
	n := New(twoSite(t))
	// 30 MB over a 10 MB/s link: 3 seconds.
	tr := n.StartTransfer(0, 1, 30e6)
	var now vclock.Time
	for i := 0; i < 10 && !tr.Done(); i++ {
		now += vclock.Time(time.Second)
		step(n, now)
	}
	if !tr.Done() {
		t.Fatal("transfer did not complete")
	}
	if want := vclock.Time(3 * time.Second); now != want {
		t.Fatalf("done at %v, want %v", now, want)
	}
	if tr.Remaining() != 0 {
		t.Fatalf("Remaining = %v, want 0", tr.Remaining())
	}
	if tr.total != 30e6 {
		t.Fatalf("total = %v, want 3e7", tr.total)
	}
}

func TestTransferContendsWithFlow(t *testing.T) {
	n := New(twoSite(t))
	f := n.AddFlow(0, 1)
	f.SetDemand(5e6)
	tr := n.StartTransfer(0, 1, 100e6)
	step(n, time.Second)
	if got := f.Allocated(); got != 5e6 {
		t.Fatalf("flow Allocated = %v, want 5e6 (its demand < fair share)", got)
	}
	if got := tr.allocated; got != 5e6 {
		t.Fatalf("transfer Allocated = %v, want the leftover 5e6", got)
	}
}

func TestZeroSizeTransferCompletesImmediately(t *testing.T) {
	n := New(twoSite(t))
	tr := n.StartTransfer(0, 1, 0)
	step(n, time.Second)
	if !tr.Done() {
		t.Fatal("zero-size transfer not done after one step")
	}
}

func TestEstimateTransferTime(t *testing.T) {
	n := New(twoSite(t))
	// 60 MB at 10 MB/s = 6 s.
	if got, want := n.EstimateTransferTime(0, 1, 60e6, 0), 6*time.Second; got != want {
		t.Fatalf("EstimateTransferTime = %v, want %v", got, want)
	}
	if got := n.EstimateTransferTime(0, 1, 0, 0); got != 0 {
		t.Fatalf("zero-byte estimate = %v, want 0", got)
	}
	n.SetGlobalFactor(trace.Constant(0.5))
	if got, want := n.EstimateTransferTime(0, 1, 60e6, 0), 12*time.Second; got != want {
		t.Fatalf("halved-bandwidth estimate = %v, want %v", got, want)
	}
}

func TestNegativeDemandTreatedAsZero(t *testing.T) {
	n := New(twoSite(t))
	f := n.AddFlow(0, 1)
	f.SetDemand(-5)
	if f.demand != 0 {
		t.Fatalf("demand = %v, want 0", f.demand)
	}
}

func TestStepNonPositivePanics(t *testing.T) {
	n := New(twoSite(t))
	defer func() {
		if recover() == nil {
			t.Fatal("Step(0) did not panic")
		}
	}()
	n.Step(0, 0)
}

func TestLatency(t *testing.T) {
	n := New(twoSite(t))
	if got := n.Latency(0, 1); got != 50*time.Millisecond {
		t.Fatalf("Latency = %v, want 50ms", got)
	}
}

// Property: max-min fair share never over-allocates, never exceeds any
// claimant's demand, and is work-conserving (if total demand >= capacity,
// the full capacity is granted).
func TestMaxMinFairShareProperties(t *testing.T) {
	n := New(twoSite(t))
	err := quick.Check(func(rawCap uint16, rawDemands []uint16) bool {
		capacity := float64(rawCap)
		cs := make([]claimant, len(rawDemands))
		total := 0.0
		for i, d := range rawDemands {
			cs[i] = claimant{demand: float64(d)}
			total += float64(d)
		}
		alloc := n.fairShareInto(capacity, cs)
		var granted float64
		for i, a := range alloc {
			if a < 0 || a > cs[i].demand+1e-9 {
				return false
			}
			granted += a
		}
		if granted > capacity+1e-6 {
			return false
		}
		if total >= capacity && len(cs) > 0 && granted < capacity-1e-6 {
			return false // not work-conserving
		}
		if total < capacity && math.Abs(granted-total) > 1e-6 {
			return false // under-demand must be fully satisfied
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
