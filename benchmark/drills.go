package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/wasp-stream/wasp/internal/experiment"
	"github.com/wasp-stream/wasp/internal/matching"
	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/state"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Layer drills: timed loops over one layer's public functions, on inputs
// taken from the workload. Iteration counts are fixed, like the work lists.

// drillVclock times the scheduler's own cost per event: a ticker that does
// nothing.
func drillVclock(v map[string]float64) {
	sched := vclock.NewScheduler(nil)
	sched.Every(250*time.Millisecond, func(vclock.Time) {})
	v["vclock.dispatch_ns"] = ns(perCall(200_000, func() { sched.Step() }))
}

func drillTopology(sc *experiment.Scenario, v map[string]float64) {
	if sc.Topology.N() > 64 {
		cfg := topology.DefaultScaleConfig(sc.Seed, scaleRegions, scaleEdges)
		v["topology.generate_scale_ms"] = ms(perCall(3, func() { _, _ = topology.GenerateScale(cfg) }))
	} else {
		cfg := topology.DefaultGenConfig(sc.Seed)
		v["topology.generate_us"] = us(perCall(200, func() { topology.Generate(cfg) }))
	}
	tr := trace.LiveBandwidthFactor(sc.Seed, sc.Duration)
	step := sc.Duration / 1000
	i := 0
	v["trace.at_ns"] = ns(perCall(1_000_000, func() {
		tr.At(vclock.Time(i%1000) * step)
		i++
	}))
}

// drillExperiment measures what the worker pool buys on this machine: a fixed
// 8-cell chaos grid run sequentially and on two workers.
func drillExperiment(v map[string]float64) {
	const cells, duration = 8, 300 * time.Second
	grid := func(workers int) time.Duration {
		experiment.SetParallelism(workers)
		defer experiment.SetParallelism(1)
		t0 := now()
		_, _ = experiment.RunChaos(1, cells, duration)
		return now() - t0
	}
	grid(1) // warm-up
	j1, j2 := grid(1), grid(2)
	v["experiment.pool_speedup_j2"] = float64(j1) / float64(j2)
}

func drillMetrics(rig *stack, v map[string]float64) error {
	reports := rig.eng.SampleSites()
	if len(reports) == 0 {
		return fmt.Errorf("drill: engine reports no sites")
	}
	at := rig.sched.Now()
	merger := metrics.NewReportMerger()
	round := 0
	v["metrics.merger_absorb_ns"] = ns(perCall(2000, func() {
		// Every pass over the sites is a later report, as in a run.
		rep := reports[round%len(reports)]
		rep.At = at + vclock.Time(round/len(reports)+1)*vclock.Time(time.Second)
		merger.Absorb(rep)
		round++
	}))
	snapAt := at + vclock.Time(round)*vclock.Time(time.Second)
	v["metrics.merger_snapshot_us"] = us(perCall(500, func() { merger.Snapshot(snapAt) }))

	snap := rig.eng.Sample()
	g := rig.eng.Plan().Graph
	if _, _, err := metrics.EstimateActual(g, snap); err != nil {
		return fmt.Errorf("drill: EstimateActual: %w", err)
	}
	v["metrics.estimate_actual_us"] = us(perCall(2000, func() { _, _, _ = metrics.EstimateActual(g, snap) }))
	ids := g.OperatorIDs()
	i := 0
	v["metrics.diagnose_ns"] = ns(perCall(1_000_000, func() {
		s := snap.Ops[ids[i%len(ids)]]
		metrics.Diagnose(s, s.ArrivalRate, 0.05)
		i++
	}))
	return nil
}

// drillMatching solves the controller's migration-mapping problem at its
// largest size, eight old tasks onto eight new ones.
func drillMatching(seed int64, v map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	cost := make([][]float64, 8)
	for i := range cost {
		cost[i] = make([]float64, 8)
		for j := range cost[i] {
			cost[i][j] = rng.Float64()
		}
	}
	v["matching.minmax_us"] = us(perCall(2000, func() { _, _, _ = matching.MinMax(cost) }))
	v["matching.minsum_us"] = us(perCall(2000, func() { _, _, _ = matching.MinSum(cost) }))
}

// drillNetsim mirrors the deployed plan's flow set onto a fresh network and
// times the fair-share step with every flow's demand moving, the way a tick
// under changing load dirties every link.
func drillNetsim(rig *stack, v map[string]float64) error {
	top := rig.sc.Topology
	net := netsim.New(top)
	pp := rig.eng.Plan()
	_, _, outBytes, err := pp.Graph.ExpectedRates(1)
	if err != nil {
		return fmt.Errorf("drill: expected rates: %w", err)
	}
	type flow struct {
		f    *netsim.Flow
		base float64
	}
	var flows []flow
	links := map[[2]topology.SiteID]bool{}
	var busiest [2]topology.SiteID
	var busiestBytes float64
	for _, from := range pp.Graph.OperatorIDs() {
		for _, to := range pp.Graph.Downstream(from) {
			fromSites, toSites := pp.Stages[from].Sites, pp.Stages[to].Sites
			share := outBytes[from] / float64(len(fromSites)*len(toSites))
			for _, fs := range fromSites {
				for _, ts := range toSites {
					if fs == ts {
						continue
					}
					flows = append(flows, flow{net.AddFlow(fs, ts), share})
					links[[2]topology.SiteID{fs, ts}] = true
					if share > busiestBytes {
						busiest, busiestBytes = [2]topology.SiteID{fs, ts}, share
					}
				}
			}
		}
	}
	if len(flows) == 0 {
		return fmt.Errorf("drill: deployed plan has no cross-site flow")
	}
	v["netsim.flows"] = float64(len(flows))
	v["netsim.active_links"] = float64(len(links))

	const dt = 250 * time.Millisecond
	at := vclock.Time(0)
	step := func() time.Duration {
		at += dt
		wobble := 1 + 0.1*float64(at/dt%7)
		for _, fl := range flows {
			fl.f.SetDemand(fl.base * wobble)
		}
		t0 := now()
		net.Step(at, dt)
		return now() - t0
	}
	var stepUS []float64
	for i := 0; i < 4000; i++ {
		stepUS = append(stepUS, us(step()))
	}
	v["netsim.step_us_p50"] = quantile(stepUS, 0.50)
	v["netsim.step_us_p99"] = quantile(stepUS, 0.99)
	v["netsim.step_ns_per_flow"] = 1e3 * v["netsim.step_us_p50"] / float64(len(flows))

	var faultUS []float64
	for i := 0; i < 200; i++ {
		net.SetLinkFault(busiest[0], busiest[1], 0.5)
		faultUS = append(faultUS, us(step()))
		net.ClearLinkFault(busiest[0], busiest[1])
		step()
	}
	v["netsim.post_fault_step_us"] = median(faultUS)
	v["netsim.start_transfer_us"] = us(perCall(2000, func() {
		net.CancelTransfer(net.StartTransfer(busiest[0], busiest[1], 8e6))
	}))
	v["netsim.estimate_transfer_us"] = us(perCall(100_000, func() {
		net.EstimateTransferTime(busiest[0], busiest[1], 8e6, at)
	}))
	v["netsim.capacity_ns"] = ns(perCall(1_000_000, func() { net.Capacity(busiest[0], busiest[1], at) }))
	return nil
}

// statefulGroup finds a stateful operator of the rig's plan and a site that
// runs it.
func statefulGroup(rig *stack) (plan.OpID, topology.SiteID, error) {
	pp := rig.eng.Plan()
	for _, id := range pp.Graph.StatefulOperators() {
		if sites := pp.Stages[id].Sites; len(sites) > 0 {
			return id, sites[0], nil
		}
	}
	return 0, 0, fmt.Errorf("drill: plan has no stateful operator")
}

// drillState times the checkpoint store on the rig's own snapshots.
func drillState(rig *stack, v map[string]float64) error {
	op, site, err := statefulGroup(rig)
	if err != nil {
		return err
	}
	data, err := rig.eng.SnapshotGroup(op, site)
	if err != nil {
		return fmt.Errorf("drill: %w", err)
	}
	store := state.NewStore()
	replica := topology.SiteID((int(site) + 1) % rig.sc.Topology.N())
	epoch := int64(0)
	var putErr error
	v["state.put_us"] = us(perCall(2000, func() {
		epoch++
		for _, s := range []topology.SiteID{site, replica} {
			if err := store.Put(state.Ref{Job: "drill", Operator: "op", Task: 0, Epoch: epoch, Site: s}, data); err != nil {
				putErr = err
			}
		}
	})) / 2
	if putErr != nil {
		return fmt.Errorf("drill: state put: %w", putErr)
	}
	if _, _, ok := store.LatestExcluding("drill", "op", 0, site); !ok {
		return fmt.Errorf("drill: replica checkpoint not found")
	}
	v["state.latest_excluding_us"] = us(perCall(2000, func() { store.LatestExcluding("drill", "op", 0, site) }))
	keep := epoch
	v["state.prune_us"] = us(perCall(1, func() { store.Prune("drill", "op", 0, keep) }))
	return nil
}

// tickOnce steps the rig's scheduler to the end of the next engine tick and
// returns that step's time.
func tickOnce(rig *stack) time.Duration {
	for {
		before := rig.eng.Ticks()
		t0 := now()
		if !rig.sched.Step() {
			return 0
		}
		if d := now() - t0; rig.eng.Ticks() != before {
			return d
		}
	}
}

// drillEngine times the engine's read paths on the rig at mid-run, then its
// structural mutations, each followed by the tick that rebuilds what the
// mutation invalidated. The rig is spent afterwards.
func drillEngine(rig *stack, v map[string]float64) error {
	eng := rig.eng
	v["engine.sample_us"] = us(perCall(200, func() { eng.Sample() }))
	v["engine.sample_sites_us"] = us(perCall(200, func() { eng.SampleSites() }))
	v["engine.conservation_us"] = us(perCall(200, func() { eng.Conservation() }))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const steady = 2000
	for i := 0; i < steady; i++ {
		tickOnce(rig)
	}
	runtime.ReadMemStats(&m1)
	v["engine.allocs_per_tick"] = float64(m1.Mallocs-m0.Mallocs) / steady

	op, site, err := statefulGroup(rig)
	if err != nil {
		return err
	}
	data, err := eng.SnapshotGroup(op, site)
	if err != nil {
		return fmt.Errorf("drill: %w", err)
	}
	v["engine.snapshot_group_us"] = us(perCall(2000, func() { _, _ = eng.SnapshotGroup(op, site) }))

	// Reconfigure in place: the same sites, nothing to migrate, so the call
	// and the tick that finalises it are all engine work.
	sites := append([]topology.SiteID(nil), eng.Plan().Stages[op].Sites...)
	var reconfUS, postUS []float64
	for i := 0; i < 50; i++ {
		t0 := now()
		if err := eng.Reconfigure(op, sites, nil, nil); err != nil {
			return fmt.Errorf("drill: reconfigure: %w", err)
		}
		for eng.Reconfiguring(op) {
			tickOnce(rig)
		}
		reconfUS = append(reconfUS, us(now()-t0))
		postUS = append(postUS, us(tickOnce(rig)))
		for j := 0; j < 8; j++ {
			tickOnce(rig)
		}
	}
	v["engine.reconfigure_us"] = median(reconfUS)

	var crashUS []float64
	for i := 0; i < 50; i++ {
		t0 := now()
		eng.CrashSite(site)
		eng.RestoreSite(site)
		crashUS = append(crashUS, us(now()-t0))
		postUS = append(postUS, us(tickOnce(rig)))
		for j := 0; j < 8; j++ {
			tickOnce(rig)
		}
	}
	v["engine.crash_restore_us"] = median(crashUS)
	v["engine.post_mutation_tick_us"] = median(postUS)

	if err := eng.RestoreOperatorState(op, data); err != nil {
		return fmt.Errorf("drill: restore state: %w", err)
	}
	v["engine.restore_state_us"] = us(perCall(200, func() { _ = eng.RestoreOperatorState(op, data) }))
	return nil
}
