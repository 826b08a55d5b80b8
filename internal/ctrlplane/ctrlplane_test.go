package ctrlplane

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// fakeSampler reports n sites stamped with the scheduler's time: site 0
// carries whatever counters the test staged, every other site is idle
// (an empty heartbeat).
type fakeSampler struct {
	n     int
	now   func() vclock.Time
	site0 []metrics.OpCounters
}

func (f *fakeSampler) SampleSites() []metrics.SiteReport {
	reps := make([]metrics.SiteReport, f.n)
	for s := range reps {
		reps[s] = metrics.SiteReport{Site: topology.SiteID(s), At: f.now()}
	}
	reps[0].Ops = f.site0
	return reps
}

// A local plane pulls a report per site at each Snapshot, so its rates
// run from the previous Snapshot; its evidence never ages, so no site is
// stale or masked however long the gap; a command applies inline with
// the apply error as the result; and it records nothing.
func TestLocalPlane(t *testing.T) {
	sched := vclock.NewScheduler(&vclock.Clock{})
	smp := &fakeSampler{n: 3, now: sched.Now}
	p := NewLocal(smp)

	smp.site0 = []metrics.OpCounters{{Op: 1, Incarnation: 1, Processed: 400}}
	if err := sched.RunUntil(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	p.Snapshot(sched.Now())
	smp.site0 = []metrics.OpCounters{{Op: 1, Incarnation: 1, Processed: 1000}}
	if err := sched.RunUntil(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := p.Snapshot(sched.Now()).Ops[1].ProcessingRate; got != 10 {
		t.Errorf("ProcessingRate = %v; want 10 (600 events over the 60s since the last Snapshot)", got)
	}

	later := sched.Now() + vclock.Time(10*time.Minute)
	p.UpdateQuarantine(later)
	if age := p.StalestOf([]topology.SiteID{0, 1, 2}, later); age != 0 {
		t.Errorf("StalestOf = %v; want 0 (a local plane's evidence has no age)", age)
	}
	free := []int{4, 4, 4}
	p.MaskUnreachable(free, later)
	if free[0] != 4 || free[1] != 4 || free[2] != 4 {
		t.Errorf("free = %v; a local plane masks nothing", free)
	}
	if p.NumRegions() != 0 || len(p.QuarantinedRegions()) != 0 {
		t.Errorf("local plane has %d regions, %v quarantined; want none", p.NumRegions(), p.QuarantinedRegions())
	}

	applied := 0
	if err := p.SendCommand(plan.OpID(1), "reassign", []topology.SiteID{2}, func() error {
		applied++
		return nil
	}); err != nil || applied != 1 {
		t.Fatalf("SendCommand = %v with %d applies; want nil after one inline apply", err, applied)
	}
	if err := p.SendCommand(plan.OpID(1), "reassign", nil, func() error {
		return errors.New("engine: empty placement")
	}); err == nil || err.Error() != "engine: empty placement" {
		t.Errorf("SendCommand error = %v; want the apply error", err)
	}
	if p.CommandInFlight(1) || p.UnackedCommands() != 0 || len(p.Supervise(later)) != 0 {
		t.Error("a local command left something in flight")
	}
}

// quarantined reports whether site s's region is quarantined.
func quarantined(p *Plane, s topology.SiteID) bool {
	_, q := p.QuarantinedRegionOf([]topology.SiteID{s})
	return q
}

// fakeNet is a uniform-latency network with per-pair reachability holes.
type fakeNet struct {
	lat  time.Duration
	down map[[2]topology.SiteID]bool
}

func (f *fakeNet) Latency(from, to topology.SiteID) time.Duration {
	if from == to {
		return time.Millisecond
	}
	return f.lat
}

func (f *fakeNet) Reachable(from, to topology.SiteID, _ vclock.Time) bool {
	return !f.down[[2]topology.SiteID{from, to}]
}

// rig builds a 4-site, 2-region topology (region 0 = {0,1} with the
// controller on site 0; region 1 = {2,3}) with a 2s-latency WAN.
func rig(t *testing.T) (*Plane, *fakeNet, *vclock.Scheduler) {
	t.Helper()
	sched := vclock.NewScheduler(&vclock.Clock{})
	return rigWith(t, sched, &fakeSampler{n: 4, now: sched.Now})
}

// rigWith is rig over the given scheduler and sampler.
func rigWith(t *testing.T, sched *vclock.Scheduler, smp Sampler) (*Plane, *fakeNet, *vclock.Scheduler) {
	t.Helper()
	const n = 4
	sites := make([]topology.Site, n)
	lat := make([][]time.Duration, n)
	bw := make([][]topology.Mbps, n)
	for i := 0; i < n; i++ {
		sites[i] = topology.Site{ID: topology.SiteID(i), Name: "s", Kind: topology.DataCenter, Slots: 4}
		lat[i] = make([]time.Duration, n)
		bw[i] = make([]topology.Mbps, n)
		for j := 0; j < n; j++ {
			bw[i][j] = 1000
			if i != j {
				lat[i][j] = 2 * time.Second
			}
		}
	}
	top, err := topology.NewRegioned(sites, lat, bw, []topology.RegionID{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	net := &fakeNet{lat: 2 * time.Second, down: map[[2]topology.SiteID]bool{}}
	o := obs.New(sched.Now)
	p := New(Config{}, smp, net, top, sched, o)
	return p, net, sched
}

// reusingSampler reports 4 sites the way the engine does: one report
// slice and one Ops buffer, both rewritten in place at every call. Every
// site runs ops 1 and 2 with counters that grow with the clock, so a
// report read after the next call carries the wrong numbers.
type reusingSampler struct {
	now  func() vclock.Time
	reps []metrics.SiteReport
	ops  []metrics.OpCounters
}

func newReusingSampler(now func() vclock.Time) *reusingSampler {
	return &reusingSampler{now: now, reps: make([]metrics.SiteReport, 4), ops: make([]metrics.OpCounters, 8)}
}

func (r *reusingSampler) SampleSites() []metrics.SiteReport {
	now := r.now()
	for s := range r.reps {
		ops := r.ops[2*s : 2*s+2 : 2*s+2]
		for i := range ops {
			v := now.Seconds() * float64(100*(s+1)+10*i)
			ops[i] = metrics.OpCounters{Op: plan.OpID(i + 1), Incarnation: 1, Arrived: v, Processed: v, InputQueueLen: v / 7, Tasks: s + 1}
		}
		r.reps[s] = metrics.SiteReport{Site: topology.SiteID(s), At: now, Ops: ops}
	}
	return r.reps
}

// copyingSampler deep-copies every report of the sampler it wraps into
// fresh memory: the reference a plane that copies what it keeps must match.
type copyingSampler struct{ Sampler }

func (c copyingSampler) SampleSites() []metrics.SiteReport {
	reps := slices.Clone(c.Sampler.SampleSites())
	for i := range reps {
		reps[i].Ops = slices.Clone(reps[i].Ops)
	}
	return reps
}

// A report in flight must not see the sampler's next round: under a
// ctrldelay longer than reportEvery two rounds are on the wire at once,
// and the plane over a reusing sampler must merge exactly what the plane
// over deep copies merges.
func TestInFlightReportsOwnTheirOps(t *testing.T) {
	run := func(copying bool) []*metrics.Snapshot {
		sched := vclock.NewScheduler(&vclock.Clock{})
		var smp Sampler = newReusingSampler(sched.Now)
		if copying {
			smp = copyingSampler{smp}
		}
		p, _, _ := rigWith(t, sched, smp)
		p.SetExtraDelay(25 * time.Second)
		p.Start()
		var snaps []*metrics.Snapshot
		for at := 5 * time.Second; at <= 200*time.Second; at += 5 * time.Second {
			if err := sched.RunUntil(at); err != nil {
				t.Fatal(err)
			}
			// The plane refills one snapshot: keep a copy of each.
			snap := *p.Snapshot(sched.Now())
			snap.Ops = slices.Clone(snap.Ops)
			snaps = append(snaps, &snap)
		}
		return snaps
	}
	got, want := run(false), run(true)
	if len(want[len(want)-1].Ops) == 0 {
		t.Fatal("no report reached the controller")
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("snapshot at %v differs from the deep-copy reference:\n got %+v\nwant %+v", want[i].At, got[i], want[i])
		}
	}
}

// Once its in-flight slots and the merger's buffers exist, a WAN report
// round allocates nothing: not per report sent, nor per report delivered.
func TestReportRoundAllocatesNothing(t *testing.T) {
	sched := vclock.NewScheduler(&vclock.Clock{})
	p, _, _ := rigWith(t, sched, newReusingSampler(sched.Now))
	p.Start()
	if err := sched.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	before := p.obs.Registry().Counter("wasp_ctrl_reports_total").Value()
	allocs := testing.AllocsPerRun(20, func() {
		if err := sched.RunUntil(sched.Now() + reportEvery); err != nil {
			t.Fatal(err)
		}
	})
	if delivered := p.obs.Registry().Counter("wasp_ctrl_reports_total").Value() - before; delivered < 20*4 {
		t.Fatalf("%v reports delivered over 21 rounds; want every site's every round", delivered)
	}
	if allocs != 0 {
		t.Fatalf("a WAN report round of 4 reports allocates %v times; want 0", allocs)
	}
}

// Reports ride the WAN: a report generated at t carries its generation
// stamp, arrives one link latency later, and ages from t, not arrival.
func TestReportsAgeFromGeneration(t *testing.T) {
	p, _, sched := rig(t)
	p.Start()
	if err := sched.RunUntil(11 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Round fired at t=10s; remote site 3's heartbeat is still in flight
	// (arrives 12s), the controller's own site already landed (1ms).
	if _, ok := p.merger.Age(3, sched.Now()); ok {
		t.Fatal("remote heartbeat arrived before one WAN latency elapsed")
	}
	if err := sched.RunUntil(13 * time.Second); err != nil {
		t.Fatal(err)
	}
	age, ok := p.merger.Age(3, sched.Now())
	if !ok || age != 3*time.Second {
		t.Fatalf("Age(3) = %v, %v; want 3s (generated at 10s, now 13s), true", age, ok)
	}
}

// A region whose every site goes silent past partitionAfter is
// quarantined; the first report back out re-admits it and bumps its
// epoch.
func TestQuarantineAndReadmitBumpsEpoch(t *testing.T) {
	p, _, sched := rig(t)
	p.Start()

	// Cut region 1 (sites 2, 3) off from the controller at t=20s.
	sched.At(20*time.Second, func(vclock.Time) { p.SetRegionPartition(1, true) })
	if err := sched.RunUntil(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	p.UpdateQuarantine(sched.Now())
	if !quarantined(p, 2) || !quarantined(p, 3) {
		t.Fatalf("region 1 not quarantined after %v of silence", sched.Now()-20*time.Second)
	}
	if quarantined(p, 0) || quarantined(p, 1) {
		t.Fatal("region 0 quarantined despite reporting")
	}
	if got := p.QuarantinedRegions(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("QuarantinedRegions() = %v; want [1]", got)
	}
	if p.epoch[1] != 0 {
		t.Fatalf("epoch bumped on quarantine entry; want bump on re-admission only")
	}

	// Heal; the next report round re-admits the region.
	p.SetRegionPartition(1, false)
	if err := sched.RunUntil(115 * time.Second); err != nil {
		t.Fatal(err)
	}
	if quarantined(p, 2) {
		t.Fatal("region 1 still quarantined after reports resumed")
	}
	if p.epoch[1] != 1 {
		t.Fatalf("Epoch(1) = %d after re-admission; want 1", p.epoch[1])
	}
}

// A command issued against a pre-re-admission view must be fenced at
// delivery: its epoch no longer matches the region's, so the apply
// closure never runs.
func TestEpochFencing(t *testing.T) {
	p, _, sched := rig(t)
	p.Start()

	sched.At(20*time.Second, func(vclock.Time) { p.SetRegionPartition(1, true) })
	if err := sched.RunUntil(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	p.UpdateQuarantine(sched.Now())

	// Issue a command into the quarantined region (epoch 0 snapshot). Its
	// first delivery (t≈102s) dies on the still-active partition; the
	// heal at t=105s lets reports resume, so the region re-admits (epoch
	// 1) before the supervisor's re-send can land — which must then fence.
	applied := false
	if err := p.SendCommand(plan.OpID(1), "reassign", []topology.SiteID{2}, func() error {
		applied = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sched.At(105*time.Second, func(vclock.Time) { p.SetRegionPartition(1, false) })
	if err := sched.RunUntil(200 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.epoch[1] != 1 {
		t.Fatalf("Epoch(1) = %d; want 1 after re-admission", p.epoch[1])
	}
	for i := 0; i < 8; i++ { // drain the supervisor's retry schedule
		p.Supervise(sched.Now())
		if err := sched.RunUntil(sched.Now() + 40*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if applied {
		t.Fatal("epoch-fenced command still applied")
	}
	if p.CommandInFlight(plan.OpID(1)) {
		t.Fatal("fenced command still counted in flight")
	}
	if n := p.UnackedCommands(); n != 0 {
		t.Fatalf("UnackedCommands() = %d; want 0 (fenced commands resolve)", n)
	}
}

// An ack lost on the return path leaves the command pending; the
// supervisor re-sends and the idempotent delivery path re-acks without
// running apply a second time.
func TestRetryIsIdempotent(t *testing.T) {
	p, net, sched := rig(t)
	applies := 0

	// Site 2 → controller is down (acks lost), controller → site 2 fine.
	net.down[[2]topology.SiteID{2, 0}] = true
	if err := p.SendCommand(plan.OpID(7), "scale-out", []topology.SiteID{2, 3}, func() error {
		applies++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(commandTimeout + 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if applies != 1 {
		t.Fatalf("apply ran %d times before retry; want 1", applies)
	}
	if p.UnackedCommands() != 1 {
		t.Fatal("command acked despite the return path being down")
	}

	// Heal the return path; one supervised re-send must re-ack without
	// re-applying.
	net.down[[2]topology.SiteID{2, 0}] = false
	p.Supervise(sched.Now())
	if err := sched.RunUntil(sched.Now() + 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if applies != 1 {
		t.Fatalf("apply ran %d times; re-delivery must be idempotent", applies)
	}
	if p.UnackedCommands() != 0 {
		t.Fatal("command still unacked after the path healed and a re-send")
	}
	if p.CommandInFlight(plan.OpID(7)) {
		t.Fatal("acked command still in flight")
	}
}

// A command whose target stays unreachable is re-sent commandRetries
// times and then aborted, with Applied=false telling the controller the
// actuation never ran.
func TestAbortAfterRetryBudget(t *testing.T) {
	p, _, sched := rig(t)
	p.SetRegionPartition(1, true)

	if err := p.SendCommand(plan.OpID(3), "replan", []topology.SiteID{3}, func() error {
		t.Fatal("apply ran inside a partitioned region")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p.WrongActions() != 1 {
		t.Fatalf("WrongActions() = %d; want 1 (command aimed into an active partition)", p.WrongActions())
	}
	// A second command on the same op must be refused while one pends.
	if err := p.SendCommand(plan.OpID(3), "replan", []topology.SiteID{3}, func() error { return nil }); err == nil {
		t.Fatal("second in-flight command for the same op accepted")
	}

	var aborted []Aborted
	for i := 0; i < commandRetries+2; i++ {
		if err := sched.RunUntil(sched.Now() + commandTimeout + 2*time.Second); err != nil {
			t.Fatal(err)
		}
		aborted = append(aborted, p.Supervise(sched.Now())...)
	}
	if len(aborted) != 1 {
		t.Fatalf("aborted = %+v; want exactly one abort", aborted)
	}
	if aborted[0].Op != plan.OpID(3) || aborted[0].Applied {
		t.Fatalf("aborted = %+v; want op 3 with Applied=false", aborted[0])
	}
	if p.UnackedCommands() != 0 {
		t.Fatal("aborted command still counted as unacked")
	}
}

// A command names an operator: a negative op is refused before anything
// is sent, and CommandInFlight answers false for any op without one.
func TestCommandNeedsAnOperator(t *testing.T) {
	p, _, _ := rig(t)
	err := p.SendCommand(plan.OpID(-1), "reassign", []topology.SiteID{1}, func() error {
		t.Fatal("apply ran for a negative op")
		return nil
	})
	if err == nil || err.Error() != "ctrlplane: command for op -1 names no operator" {
		t.Fatalf("SendCommand(-1) = %v", err)
	}
	for _, op := range []plan.OpID{-1, 0, 1 << 20} {
		if p.CommandInFlight(op) {
			t.Fatalf("CommandInFlight(%d) with no command sent", op)
		}
	}
	if p.UnackedCommands() != 0 {
		t.Fatal("a refused command counts as unacked")
	}
}

// An apply error resolves the command (reported, not retried forever).
func TestApplyErrorResolves(t *testing.T) {
	p, _, sched := rig(t)
	if err := p.SendCommand(plan.OpID(5), "reassign", []topology.SiteID{1}, func() error {
		return errors.New("no slots")
	}); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.CommandInFlight(plan.OpID(5)) || p.UnackedCommands() != 0 {
		t.Fatal("failed command not resolved")
	}
}

// MaskUnreachable zeroes quarantined and stale sites out of the free-slot
// vector but never the controller's own site.
func TestMaskUnreachable(t *testing.T) {
	p, _, sched := rig(t)
	p.Start()
	sched.At(15*time.Second, func(vclock.Time) { p.SetRegionPartition(1, true) })
	if err := sched.RunUntil(15*time.Second + partitionAfter + reportEvery); err != nil {
		t.Fatal(err)
	}
	p.UpdateQuarantine(sched.Now())

	free := []int{4, 4, 4, 4}
	p.MaskUnreachable(free, sched.Now())
	// Site 0 (controller) and 1 keep reporting; 2 and 3 are silent past
	// both the staleness bound and the quarantine threshold.
	if free[0] != 4 || free[1] != 4 {
		t.Fatalf("free = %v; reporting sites were masked", free)
	}
	if free[2] != 0 || free[3] != 0 {
		t.Fatalf("free = %v; quarantined sites not masked", free)
	}
}

// The plane keeps only the commands still awaiting an ack, in issue
// order: an acked, a failed and an aborted command leave, and the next
// command's ID still counts every command sent.
func TestPlaneKeepsOnlyUnresolvedCommands(t *testing.T) {
	p, _, sched := rig(t)
	p.SetRegionPartition(1, true)
	send := func(op plan.OpID, site topology.SiteID, apply func() error) {
		t.Helper()
		if err := p.SendCommand(op, "reassign", []topology.SiteID{site}, apply); err != nil {
			t.Fatal(err)
		}
	}
	held := func(what string, ops ...plan.OpID) {
		t.Helper()
		var got []plan.OpID
		for _, c := range p.cmds {
			got = append(got, c.Op)
		}
		if !slices.Equal(got, ops) || p.UnackedCommands() != len(ops) {
			t.Fatalf("%s: plane holds commands for ops %v (%d unacked), want %v", what, got, p.UnackedCommands(), ops)
		}
	}
	send(1, 1, func() error { return nil })                    // acked
	send(2, 2, func() error { return nil })                    // partitioned: aborted
	send(3, 1, func() error { return errors.New("no slots") }) // failed
	held("sent", 1, 2, 3)
	if err := sched.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	held("after an ack and a failure", 2)
	for i := 0; i <= commandRetries; i++ {
		if err := sched.RunUntil(sched.Now() + commandTimeout); err != nil {
			t.Fatal(err)
		}
		p.Supervise(sched.Now())
	}
	held("after the abort")
	send(1, 1, func() error { return nil })
	held("sent again", 1)
	if id := p.cmds[0].ID; id != 3 {
		t.Fatalf("fourth command has ID %d, want 3", id)
	}
}
