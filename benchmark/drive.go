package main

import (
	"fmt"
	"reflect"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/chaos"
	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/experiment"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// stack is the object graph experiment.Run builds for a scenario, composed
// here from the same public constructors in the same order so that the
// benchmark can put its own timing closures where Run calls Start. Only the
// Scenario fields the workloads set are mirrored; sameRun holds the result
// to experiment.Run's.
type stack struct {
	sc     *experiment.Scenario
	obs    *obs.Observer
	net    *netsim.Network
	sched  *vclock.Scheduler
	query  *queries.Query
	best   *physical.Candidate
	eng    *engine.Engine
	ctl    *adapt.Controller
	plane  *ctrlplane.Plane
	rm     *adapt.RecoveryManager
	faults []faults.Fault
}

// compose builds the stack up to, not including, the tickers.
func compose(sc *experiment.Scenario, tr *tracer) (*stack, error) {
	s := &stack{sc: sc, obs: sc.Obs}
	top := sc.Topology
	tr.in("setup.topology", func() {
		s.net = netsim.New(top)
		s.sched = vclock.NewScheduler(nil)
		s.obs.Bind(s.sched.Now)
		s.net.SetObserver(s.obs)
		if sc.Bandwidth != nil {
			s.net.SetGlobalFactor(sc.Bandwidth)
		}
		if sc.PerLinkBandwidth {
			pair := int64(0)
			for from := 0; from < top.N(); from++ {
				for to := 0; to < top.N(); to++ {
					if from == to {
						continue
					}
					pair++
					s.net.SetLinkFactor(topology.SiteID(from), topology.SiteID(to),
						trace.LiveBandwidthFactor(sc.Seed*1000+pair, sc.Duration))
				}
			}
		}
	})

	var err error
	tr.in("setup.plan", func() {
		s.query = buildQuery(sc)
		s.best, _, err = physical.PlanQuery(s.query.Graph, s.query.Spec, top, plannerConfig(sc.MaxVariants))
	})
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", s.query.Name, err)
	}

	tr.in("setup.deploy", func() {
		s.eng = engine.New(sc.Engine, top, s.net, s.sched)
		s.eng.SetObserver(s.obs)
		tr.in("engine.deploy", func() { err = s.eng.Deploy(s.best.Plan) })
		if err != nil {
			return
		}
		if sc.Workload != nil {
			s.eng.SetWorkloadFactor(sc.Workload)
		}
		if sc.PerSourceWorkload {
			for i, op := range s.query.SourceOps {
				s.eng.SetSourceFactor(op, trace.LiveWorkloadFactor(sc.Seed*100+int64(i), sc.Duration))
			}
		}
		s.ctl = adapt.NewController(sc.Adapt, s.eng, top, s.net, s.sched,
			&adapt.ReplanSpec{Base: s.query.Graph, Spec: s.query.Spec, Current: s.best.Variant, MaxVariants: sc.ReplanMaxVariants})
		s.ctl.SetObserver(s.obs)
		if sc.Ctrl != nil {
			ccfg := *sc.Ctrl
			if ccfg.ControllerSite == 0 {
				ccfg.ControllerSite = top.SitesOfKind(topology.DataCenter)[0]
			}
			if ccfg.Seed == 0 {
				ccfg.Seed = sc.Seed
			}
			s.plane = ctrlplane.New(ccfg, s.eng, s.net, top, s.sched, s.ctl.Observer())
			s.ctl.AttachControlPlane(s.plane)
		}
		if sc.CheckpointEvery > 0 {
			s.rm = adapt.NewRecoveryManager(s.query.Name, sc.CheckpointEvery, s.eng, top, s.sched, nil)
			s.ctl.AttachRecovery(s.rm)
		}
		s.faults = append([]faults.Fault(nil), sc.Faults...)
		if sc.FaultsFor != nil {
			s.faults = append(s.faults, sc.FaultsFor(s.best.Plan, top)...)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("deploy %s: %w", s.query.Name, err)
	}
	return s, nil
}

// hooks are the closures the traced drive registers in place of the
// controller's and the recovery manager's own tickers.
type hooks struct {
	round, longTerm, checkpoint, collect func(now vclock.Time)
	recoverer                            faults.Recoverer
}

// arm registers every ticker and fault in the order experiment.Run does.
func (s *stack) arm(h hooks) (sampler *vclock.Event, err error) {
	if s.plane != nil {
		s.plane.Start()
	}
	if s.rm != nil {
		s.sched.Every(s.rm.Interval(), h.checkpoint)
	}
	if len(s.faults) > 0 {
		inj := faults.NewInjector(s.eng, s.net, s.ctl.Observer())
		inj.SetRecoverer(h.recoverer)
		if s.plane != nil {
			inj.SetControlPlane(s.plane)
		}
		if err := inj.Schedule(s.sched, s.faults); err != nil {
			return nil, fmt.Errorf("faults %s: %w", s.query.Name, err)
		}
	}
	sampler = s.sched.Every(s.sc.SampleEvery, h.collect)
	s.eng.Start()
	s.sched.Every(s.sc.Adapt.MonitorInterval, h.round)
	if every := s.sc.Adapt.LongTermReplanEvery; every > 0 {
		s.sched.Every(every, h.longTerm)
	}
	return sampler, nil
}

// finalState is the run-end state chaos.Check judges, read through the same
// getters experiment.Run uses.
func (s *stack) finalState() *chaos.RunStats {
	st := &chaos.RunStats{
		Conservation:     s.eng.Conservation(),
		SuspendedOps:     s.eng.SuspendedOps(),
		PendingReconfigs: s.eng.PendingReconfigs(),
		Replanning:       s.eng.Replanning(),
		ActiveTransfers:  s.net.ActiveTransfers(),
		DownSites:        s.eng.DownSites(),
	}
	for _, ev := range s.ctl.Observer().Events("recovery.complete") {
		if d := ev.Get("recovery_time").Duration(); d > st.MaxRecovery {
			st.MaxRecovery = d
		}
	}
	if s.plane != nil {
		st.QuarantinedRegions = s.plane.QuarantinedRegions()
		st.UnackedCommands = s.plane.UnackedCommands()
		st.WrongActions = s.plane.WrongActions()
	}
	return st
}

// timedRecoverer records the controller's crash recovery as a span.
type timedRecoverer struct {
	d *tracedCell
}

func (r timedRecoverer) OnSiteCrash(site topology.SiteID) {
	r.d.own("adapt.recover", func() { r.d.ctl.OnSiteCrash(site) })
}

// tracedCell drives one cell step by step.
type tracedCell struct {
	*stack
	tr *tracer
	// owned is set by a bench-owned closure, so the step that ran it is
	// not counted as an engine tick or a foreign event.
	owned bool

	steps, otherEvents   int64
	tickNS               []int64
	generated, processed float64
}

func (d *tracedCell) own(name string, fn func()) {
	d.owned = true
	d.tr.in(name, fn)
}

// runTracedCell is experiment.Run with the benchmark's spans around the
// controller round, the long-term round, the checkpoint round, crash recovery
// and result collection, and a timer around every other scheduler step.
func runTracedCell(sc *experiment.Scenario, tr *tracer) (*tracedCell, *experiment.Result, error) {
	st, err := compose(sc, tr)
	if err != nil {
		return nil, nil, err
	}
	d := &tracedCell{stack: st, tr: tr}
	res := &experiment.Result{Name: sc.Name, InitialTasks: st.best.Plan.TotalTasks()}
	collect := func(vclock.Time) {
		for _, dl := range st.eng.TakeDeliveries() {
			res.Samples = append(res.Samples, experiment.WeightedDelay{At: dl.At, Delay: dl.Delay.Seconds(), Weight: dl.Count})
		}
		// experiment.Run also derives the Ratio and Parallelism series
		// here; the benchmark reads neither, so they are left out.
		gen, processed, _ := st.eng.Goodput()
		st.obs.Emit("goodput.sample", obs.F64("generated", gen), obs.F64("processed", processed))
	}
	sampler, err := st.arm(hooks{
		round:      func(now vclock.Time) { d.own("adapt.round", func() { st.ctl.Round(now) }) },
		longTerm:   func(now vclock.Time) { d.own("adapt.longterm", func() { st.ctl.LongTermRound(now) }) },
		checkpoint: func(now vclock.Time) { d.own("adapt.checkpoint", func() { st.rm.CheckpointRound(now) }) },
		collect:    func(now vclock.Time) { d.own("collect", func() { collect(now) }) },
		recoverer:  timedRecoverer{d},
	})
	if err != nil {
		return nil, nil, err
	}
	// The scheduler does not show its next event, so the drive cannot stop
	// before the first one past Duration the way RunUntil does; a sentinel
	// one nanosecond later ends it after every event at or before Duration.
	done := false
	st.sched.At(vclock.Time(sc.Duration)+1, func(vclock.Time) { done = true })
	d.tickNS = make([]int64, 0, int(sc.Duration/tick)+1)

	tr.begin("drive")
	for {
		before := st.eng.Ticks()
		t0 := now()
		if !st.sched.Step() || done {
			break
		}
		dt := now() - t0
		d.steps++
		switch {
		case d.owned:
			d.owned = false
		case st.eng.Ticks() != before:
			d.tickNS = append(d.tickNS, int64(dt))
		default:
			d.otherEvents++
		}
	}
	tr.end()
	if !done {
		return nil, nil, fmt.Errorf("%s: scheduler ran dry before %v", sc.Name, sc.Duration)
	}

	tr.in("finish", func() {
		sampler.Cancel()
		st.eng.Stop()
		if st.plane != nil {
			st.plane.Stop()
		}
		collect(st.sched.Now())
		res.Generated, res.Delivered, res.Dropped = st.eng.Totals()
		_, processed, _ := st.eng.Goodput()
		res.ProcessedPct = 100
		if res.Generated > 0 {
			res.ProcessedPct = 100 * processed / res.Generated
		}
		d.generated, d.processed = res.Generated, processed
		res.Ticks = st.eng.Ticks()
		res.Actions = st.ctl.Actions()
		res.Obs = st.ctl.Observer()
		res.Final = st.finalState()
	})
	return d, res, nil
}

// sameRun reports how a traced cell's result differs from experiment.Run's on
// the same scenario; empty means the traced stack is the real stack.
func sameRun(traced, ref *experiment.Result) string {
	switch {
	case traced.Ticks != ref.Ticks:
		return fmt.Sprintf("ticks %d, experiment.Run %d", traced.Ticks, ref.Ticks)
	case len(traced.Actions) != len(ref.Actions):
		return fmt.Sprintf("%d actions, experiment.Run %d", len(traced.Actions), len(ref.Actions))
	case traced.ProcessedPct != ref.ProcessedPct:
		return fmt.Sprintf("processed %v %%, experiment.Run %v %%", traced.ProcessedPct, ref.ProcessedPct)
	case !reflect.DeepEqual(traced.Final, ref.Final):
		return fmt.Sprintf("final state %+v, experiment.Run %+v", *traced.Final, *ref.Final)
	}
	return ""
}
