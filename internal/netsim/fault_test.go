package netsim

import (
	"math"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

func TestLinkFaultBlackoutAndDegrade(t *testing.T) {
	n := New(twoSite(t))
	f := n.AddFlow(0, 1)

	n.SetLinkFault(0, 1, 0) // blackout
	if got := n.Capacity(0, 1, 0); got != 0 {
		t.Fatalf("blacked-out capacity = %v", got)
	}
	f.SetDemand(1e6)
	step(n, vclock.Time(time.Second))
	if f.Allocated() != 0 {
		t.Fatalf("flow allocated %v over a blacked-out link", f.Allocated())
	}
	// The reverse direction is unaffected.
	if got := n.Capacity(1, 0, 0); got != 10e6 {
		t.Fatalf("reverse capacity = %v, want 1e7", got)
	}

	n.SetLinkFault(0, 1, 0.25) // degradation
	if got := n.Capacity(0, 1, 0); got != 2.5e6 {
		t.Fatalf("degraded capacity = %v, want 2.5e6", got)
	}
	n.ClearLinkFault(0, 1)
	if got := n.Capacity(0, 1, 0); got != 10e6 {
		t.Fatalf("healed capacity = %v, want 1e7", got)
	}
	// Clearing twice and clearing an unfaulted link are no-ops.
	n.ClearLinkFault(0, 1)
	n.ClearLinkFault(1, 0)
}

func TestLinkFaultInflatesLatency(t *testing.T) {
	n := New(twoSite(t))
	base := n.Latency(0, 1)

	n.SetLinkFault(0, 1, 0.25)
	if got := n.Latency(0, 1); got != time.Duration(float64(base)/0.25) {
		t.Fatalf("degraded latency = %v, want %v", got, time.Duration(float64(base)/0.25))
	}
	// The reverse direction is unaffected.
	if got := n.Latency(1, 0); got != base {
		t.Fatalf("reverse latency = %v, want %v", got, base)
	}
	// A blackout keeps the base latency: capacity 0 already stops
	// delivery, and consumers precompute delivery offsets for the heal.
	n.SetLinkFault(0, 1, 0)
	if got := n.Latency(0, 1); got != base {
		t.Fatalf("blackout latency = %v, want base %v", got, base)
	}
	n.ClearLinkFault(0, 1)
	if got := n.Latency(0, 1); got != base {
		t.Fatalf("healed latency = %v, want %v", got, base)
	}
}

// Flow.Latency reads the flow's link: it follows a fault and its heal,
// keeps the base latency through a blackout, and a flow added to an
// already-degraded link starts at the degraded latency.
func TestFlowLatencyFollowsLinkFaults(t *testing.T) {
	n := New(twoSite(t))
	base := n.Latency(0, 1)
	slow := time.Duration(float64(base) / 0.25)
	f := n.AddFlow(0, 1)
	check := func(when string, f *Flow, want time.Duration) {
		t.Helper()
		if got := f.Latency(); got != want {
			t.Fatalf("%s: Flow.Latency = %v, want %v", when, got, want)
		}
		if got := n.Latency(f.From, f.To); got != want {
			t.Fatalf("%s: Network.Latency = %v, want %v", when, got, want)
		}
	}
	check("before a fault", f, base)
	n.SetLinkFault(0, 1, 0.25)
	check("degraded", f, slow)
	n.SetLinkFault(0, 1, 0)
	check("blackout", f, base)
	n.ClearLinkFault(0, 1)
	check("healed", f, base)

	n.SetLinkFault(0, 1, 0.25)
	check("added to a degraded link", n.AddFlow(0, 1), slow)
	check("reverse direction", n.AddFlow(1, 0), n.Latency(1, 0))
}

func TestLinkFaultStacksWithDynamicsAndClamps(t *testing.T) {
	n := New(twoSite(t))
	n.SetGlobalFactor(trace.Constant(0.5))
	n.SetLinkFault(0, 1, 0.5)
	if got := n.Capacity(0, 1, 0); got != 2.5e6 {
		t.Fatalf("stacked capacity = %v, want 2.5e6", got)
	}
	n.SetLinkFault(0, 1, -3) // clamps to blackout
	if got := n.Capacity(0, 1, 0); got != 0 {
		t.Fatalf("negative-factor capacity = %v, want 0", got)
	}
	n.SetLinkFault(0, 1, 1.5) // ≥ 1 clears
	if got := n.Capacity(0, 1, 0); got != 5e6 {
		t.Fatalf("cleared-by-factor capacity = %v, want 5e6", got)
	}
}

func TestMaxMinFairShareZeroCapacity(t *testing.T) {
	cs := []claimant{{demand: 10}, {demand: 20}}
	for _, c := range maxMinFairShare(0, cs) {
		if c != 0 {
			t.Fatalf("allocation on a zero-capacity link: %v", c)
		}
	}
	for _, c := range maxMinFairShare(-5, cs) {
		if c != 0 {
			t.Fatalf("allocation on a negative-capacity link: %v", c)
		}
	}
	if got := maxMinFairShare(100, nil); len(got) != 0 {
		t.Fatalf("allocations for no claimants: %v", got)
	}
}

func TestMaxMinFairShareZeroDemandClaimants(t *testing.T) {
	// Idle claimants must get nothing and their headroom must flow to the
	// busy ones.
	cs := []claimant{{demand: 0}, {demand: 90}, {demand: 0}}
	alloc := maxMinFairShare(60, cs)
	if alloc[0] != 0 || alloc[2] != 0 {
		t.Fatalf("idle claimants allocated: %v", alloc)
	}
	if alloc[1] != 60 {
		t.Fatalf("busy claimant got %v of 60", alloc[1])
	}
}

func TestMaxMinFairShareDemandTies(t *testing.T) {
	// Equal demands above the fair share split the capacity exactly
	// evenly, independent of claimant order.
	cs := []claimant{{demand: 50}, {demand: 50}, {demand: 50}}
	alloc := maxMinFairShare(90, cs)
	for i, a := range alloc {
		if math.Abs(a-30) > 1e-9 {
			t.Fatalf("alloc[%d] = %v, want 30", i, a)
		}
	}
	// A tie at exactly the equal share is fully satisfied.
	cs = []claimant{{demand: 30}, {demand: 30}, {demand: 30}}
	alloc = maxMinFairShare(90, cs)
	for i, a := range alloc {
		if a != 30 {
			t.Fatalf("alloc[%d] = %v, want 30", i, a)
		}
	}
	// Mixed: the small claimant keeps its demand; the tied big ones split
	// the rest evenly.
	cs = []claimant{{demand: 10}, {demand: 100}, {demand: 100}}
	alloc = maxMinFairShare(90, cs)
	if alloc[0] != 10 || math.Abs(alloc[1]-40) > 1e-9 || math.Abs(alloc[2]-40) > 1e-9 {
		t.Fatalf("alloc = %v, want [10 40 40]", alloc)
	}
}

// TestTransferEpsilonBoundary pins the completion rule: a transfer is done
// when remaining ≤ total×1e-9 — relative to the payload, not an absolute
// byte count. For a total of ~1e7 bytes the threshold is ~1e-2; 2^-7
// (0.0078125) and 2^-6 (0.015625) are exactly representable residues on
// either side — the link moves exactly capacity bytes per 1 s step, so
// total = cap + 2^-7 lands at remaining = 2^-7 with no rounding.
func TestTransferEpsilonBoundary(t *testing.T) {
	n := New(twoSite(t)) // 0→1 capacity 1e7 B/s
	below := n.StartTransfer(0, 1, 1e7+math.Ldexp(1, -7))
	step(n, vclock.Time(time.Second))
	if !below.Done() {
		t.Fatalf("transfer with sub-epsilon residue %v not completed", below.Remaining())
	}
	if below.Remaining() != 0 {
		t.Fatalf("completed transfer Remaining = %v, want 0", below.Remaining())
	}

	n2 := New(twoSite(t))
	above := n2.StartTransfer(0, 1, 1e7+math.Ldexp(1, -6))
	step(n2, vclock.Time(time.Second))
	if above.Done() {
		t.Fatal("transfer with super-epsilon residue completed early")
	}
	if got, want := above.Remaining(), math.Ldexp(1, -6); got != want {
		t.Fatalf("Remaining = %v, want exactly %v", got, want)
	}
	step(n2, vclock.Time(2*time.Second))
	if !above.Done() {
		t.Fatal("residue transfer never completed")
	}
}

// TestTransferEpsilonTiny: a transfer smaller than the old absolute 1e-6
// epsilon must still actually move its payload — under an absolute cut-off
// it would be "complete" without a single allocation grant. With the
// relative rule it completes only once the link delivers the bytes.
func TestTransferEpsilonTiny(t *testing.T) {
	n := New(twoSite(t))
	tiny := n.StartTransfer(0, 1, 1e-8) // below the old absolute epsilon
	// Blackout: no bandwidth, so nothing can move.
	n.SetLinkFault(0, 1, 0)
	step(n, vclock.Time(time.Second))
	if tiny.Done() {
		t.Fatal("tiny transfer completed over a blacked-out link without moving")
	}
	n.ClearLinkFault(0, 1)
	step(n, vclock.Time(2*time.Second))
	if !tiny.Done() {
		t.Fatalf("tiny transfer not completed after link healed (remaining %v)", tiny.Remaining())
	}
}

// TestTransferEpsilonHuge: a multi-GB transfer accumulates float error
// proportional to its size; the relative epsilon absorbs a residue the old
// absolute 1e-6 would leave spinning. A 1e15-byte transfer with a residue
// of 1e5 (« total×1e-9 = 1e6, » 1e-6) completes on the step that leaves
// that residue.
func TestTransferEpsilonHuge(t *testing.T) {
	top := twoSite(t)
	n := New(top)
	// Capacity 1e7 B/s; run one 1e8-second step so one grant moves 1e15.
	huge := n.StartTransfer(0, 1, 1e15+1e5)
	step2 := func(now vclock.Time, dt time.Duration) { n.Step(now, dt) }
	step2(vclock.Time(1e8*float64(time.Second)), time.Duration(1e8*float64(time.Second)))
	if !huge.Done() {
		t.Fatalf("huge transfer with residue 1e5 « total×1e-9 not completed (remaining %v)", huge.Remaining())
	}
	if huge.Remaining() != 0 {
		t.Fatalf("completed transfer Remaining = %v, want 0", huge.Remaining())
	}
}

// TestTransferZeroRateStall: a transfer on a blacked-out link receives
// zero allocation every step and must neither complete nor lose bytes, no
// matter how many steps pass.
func TestTransferZeroRateStall(t *testing.T) {
	n := New(twoSite(t))
	n.SetLinkFault(0, 1, 0)
	tr := n.StartTransfer(0, 1, 5e6)
	for i := 1; i <= 10; i++ {
		step(n, vclock.Time(time.Duration(i)*time.Second))
	}
	if tr.Done() {
		t.Fatal("stalled transfer completed with zero allocation")
	}
	if tr.Remaining() != 5e6 {
		t.Fatalf("stalled transfer lost bytes: remaining %v, want 5e6", tr.Remaining())
	}
	n.ClearLinkFault(0, 1)
	step(n, vclock.Time(11*time.Second))
	if tr.Remaining() >= 5e6 {
		t.Fatalf("healed transfer made no progress: remaining %v", tr.Remaining())
	}
}
