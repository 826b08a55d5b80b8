package netsim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/wasp-stream/wasp/internal/obs"
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

// TestSetLinkFactorNilClears: a nil per-link trace clears the factor, as
// SetGlobalFactor(nil) does, instead of panicking when capacity is read.
func TestSetLinkFactorNilClears(t *testing.T) {
	n := New(twoSite(t))
	f := n.AddFlow(0, 1)
	f.SetDemand(20e6)
	n.SetLinkFactor(0, 1, trace.Constant(0.5))
	step(n, time.Second)
	if got := f.Allocated(); got != 5e6 {
		t.Fatalf("traced Allocated = %v, want 5e6", got)
	}
	n.SetLinkFactor(0, 1, nil)
	if got := n.Capacity(0, 1, time.Second); got != 10e6 {
		t.Fatalf("cleared Capacity = %v, want 1e7", got)
	}
	step(n, 2*time.Second)
	if got := f.Allocated(); got != 10e6 {
		t.Fatalf("cleared Allocated = %v, want 1e7", got)
	}
}

// TestTracedLinkResolvedOnlyWhenFactorMoves: a steady flow on a link with a
// 1-minute Steps trace, stepped every 250 ms (240 Steps a piece), is
// re-solved at the breakpoints where the factor moves and at no other
// Step. The test plants a sentinel allocation after every Step; a re-solve
// overwrites it.
func TestTracedLinkResolvedOnlyWhenFactorMoves(t *testing.T) {
	n := New(twoSite(t))
	f := n.AddFlow(0, 1)
	f.SetDemand(30e6)
	n.SetLinkFactor(0, 1, trace.Steps(time.Minute, 0.5, 1, 1, 2))
	const dt = 250 * time.Millisecond
	var solvedAt []vclock.Time
	for now := vclock.Time(dt); now <= 4*time.Minute; now += dt {
		f.allocated = -1
		n.Step(now, dt)
		if f.allocated != -1 {
			solvedAt = append(solvedAt, now-dt)
		}
		if want := n.Capacity(0, 1, now-dt); f.allocated != -1 && f.allocated != want {
			t.Fatalf("step from %v: Allocated %v, want the capacity %v", now-dt, f.allocated, want)
		}
	}
	// The first Step solves the flow's arrival; the factor then moves at 1
	// and 3 minutes but not at 2 (1 → 1).
	want := []vclock.Time{0, time.Minute, 3 * time.Minute}
	if !slices.Equal(solvedAt, want) {
		t.Fatalf("re-solved at %d step starts, first %v; want %v", len(solvedAt), solvedAt[:min(len(solvedAt), 6)], want)
	}
}

// TestTracedLinkStepBack: Step skips its traced-link check only while the
// step start stays inside the pieces the cursors last read, so a Step
// that starts earlier than the previous one re-reads the trace.
func TestTracedLinkStepBack(t *testing.T) {
	n := New(twoSite(t))
	f := n.AddFlow(0, 1)
	f.SetDemand(30e6)
	n.SetLinkFactor(0, 1, trace.Steps(time.Minute, 1, 0.5))
	for _, now := range []vclock.Time{2 * time.Minute, 30 * time.Second, 2 * time.Minute} {
		step(n, now)
		if got, want := f.Allocated(), n.Capacity(0, 1, now-time.Second); got != want {
			t.Fatalf("step from %v: Allocated %v, want the capacity %v", now-time.Second, got, want)
		}
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

// TestCountsFollowLiveClaimants holds the flow and transfer counts —
// ActiveTransfers and the wasp_wan_flows and wasp_wan_transfers gauges —
// to the live claimants through adds, a double remove, a completion, a
// cancel and a cancel of a completed transfer.
func TestCountsFollowLiveClaimants(t *testing.T) {
	n := New(twoSite(t))
	o := obs.New(nil)
	n.SetObserver(o)
	now := vclock.Time(0)
	// The gauges read what a step leaves: a transfer that completes in the
	// step is no longer counted.
	check := func(what string, flows, transfers int) {
		t.Helper()
		now += vclock.Time(time.Second)
		step(n, now)
		if got := n.ActiveTransfers(); got != transfers {
			t.Errorf("%s: ActiveTransfers = %d, want %d", what, got, transfers)
		}
		var b strings.Builder
		if err := o.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{fmt.Sprintf("\nwasp_wan_flows %d\n", flows), fmt.Sprintf("\nwasp_wan_transfers %d\n", transfers)} {
			if !strings.Contains(b.String(), want) {
				t.Errorf("%s: gauges lack %q:\n%s", what, strings.TrimSpace(want), b.String())
			}
		}
	}
	f1, f2 := n.AddFlow(0, 1), n.AddFlow(1, 0)
	small, big := n.StartTransfer(0, 1, 1e3), n.StartTransfer(1, 0, 1e12)
	lasting := n.StartTransfer(0, 1, 1e12)
	check("registered, the small transfer completing in the step", 2, 2)
	if !small.Done() {
		t.Fatal("small transfer not done after one step")
	}
	n.RemoveFlow(f1)
	n.RemoveFlow(f1)
	check("after removing one flow twice", 1, 2)
	n.CancelTransfer(big)
	n.CancelTransfer(small)
	check("after canceling one live and one completed transfer", 1, 1)
	n.RemoveFlow(f2)
	n.CancelTransfer(lasting)
	check("after removing everything", 0, 0)
}

// TestLazyLinkFactorsMatchEager: SetLinkFactors, which builds a pair's
// trace when the pair's link is first created or its capacity first read,
// leaves every allocation, transfer and capacity bit-identical to
// installing the same traces on every pair up front with SetLinkFactor.
// The lazy network creates links only for the pairs the run touches.
func TestLazyLinkFactorsMatchEager(t *testing.T) {
	top, err := topology.GenerateScale(topology.DefaultScaleConfig(3, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	const d = 20 * time.Minute
	factor := func(from, to topology.SiteID) *trace.Trace {
		return trace.LiveBandwidthFactor(int64(from)*100+int64(to), d)
	}
	eager, lazy := New(top), New(top)
	for from := range topology.SiteID(top.N()) {
		for to := range topology.SiteID(top.N()) {
			if from != to {
				eager.SetLinkFactor(from, to, factor(from, to))
			}
		}
	}
	lazy.SetLinkFactors(factor)

	type pair struct{ from, to topology.SiteID }
	var flows [2][]*Flow
	var transfers [2][]*Transfer
	for i, n := range []*Network{eager, lazy} {
		for _, p := range []pair{{0, 1}, {1, 0}, {2, 5}, {5, 2}, {2, 5}} {
			f := n.AddFlow(p.from, p.to)
			f.SetDemand(4e6)
			flows[i] = append(flows[i], f)
		}
		transfers[i] = append(transfers[i], n.StartTransfer(3, 7, 5e8))
	}
	for k := 1; k <= 2400; k++ {
		now := vclock.Time(k) * vclock.Time(500*time.Millisecond)
		if k == 900 {
			for i, n := range []*Network{eager, lazy} {
				transfers[i] = append(transfers[i], n.StartTransfer(7, 3, 1e9))
				n.RemoveFlow(flows[i][2])
			}
		}
		for _, n := range []*Network{eager, lazy} {
			n.Step(now, 500*time.Millisecond)
		}
		for j := range flows[0] {
			if g, w := flows[1][j].Allocated(), flows[0][j].Allocated(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("step %d: flow %d allocated %v lazily, %v eagerly", k, j, g, w)
			}
		}
		for j := range transfers[0] {
			if g, w := transfers[1][j].Remaining(), transfers[0][j].Remaining(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("step %d: transfer %d has %v left lazily, %v eagerly", k, j, g, w)
			}
		}
		// Read a few pairs' capacities as the controller does, one of them
		// a pair no claimant ever uses.
		if k%97 == 0 {
			from, to := topology.SiteID(k%top.N()), topology.SiteID((k/7)%top.N())
			if g, w := lazy.Capacity(from, to, now), eager.Capacity(from, to, now); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("step %d: Capacity(%d, %d) = %v lazily, %v eagerly", k, from, to, g, w)
			}
		}
	}
	if got, all := len(lazy.traced), top.N()*(top.N()-1); got >= all {
		t.Fatalf("the lazy network traces %d of %d links before reading them all", got, all)
	}
	for from := range topology.SiteID(top.N()) {
		for to := range topology.SiteID(top.N()) {
			if g, w := lazy.Capacity(from, to, 7*vclock.Time(time.Minute)), eager.Capacity(from, to, 7*vclock.Time(time.Minute)); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("Capacity(%d, %d) = %v lazily, %v eagerly", from, to, g, w)
			}
		}
	}
	if got, all := len(lazy.traced), top.N()*(top.N()-1); got != all {
		t.Fatalf("after reading every pair the lazy network traces %d links, want %d", got, all)
	}
}
