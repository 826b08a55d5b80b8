package experiment

import (
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/chaos"
	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// QueryBuilder constructs one of the evaluation queries.
type QueryBuilder func(queries.Config) *queries.Query

// Scenario describes one experiment run: a query on the §8.2 testbed with
// scripted or trace-driven dynamics under one adaptation policy.
type Scenario struct {
	Name string
	// Seed drives the topology sample and all stochastic traces.
	Seed int64
	// Duration is the virtual run length.
	Duration time.Duration
	// Query builds the workload (default TopKTopics, the paper's
	// representative query).
	Query QueryBuilder
	// RatePerSource is the initial per-source rate (default 10000 ev/s).
	RatePerSource float64
	// Topology, when non-nil, replaces the default §8.2 testbed sample —
	// the planet-scale experiments run on topology.GenerateScale output.
	Topology *topology.Topology
	// SourceSites overrides the query's ingest sites (default: every
	// Edge site). Planet-scale runs front a bounded ingest set because
	// plan enumeration is exponential in the source count.
	SourceSites []topology.SiteID
	// RateForSite, when non-nil, supplies each ingest site's initial
	// source rate instead of the flat RatePerSource (e.g. derived from
	// simulated user populations).
	RateForSite func(topology.SiteID) float64
	// ReplanMaxVariants caps the controller's re-plan search space; 0
	// keeps physical.DefaultMaxVariants.
	ReplanMaxVariants int

	// Engine and Adapt configure the runtime and the controller.
	Engine engine.Config
	Adapt  adapt.Config

	// Workload scales all source rates over time.
	Workload *trace.Trace
	// PerSourceWorkload, when true, additionally applies an independent
	// live variation trace to every source (§8.6).
	PerSourceWorkload bool
	// Bandwidth scales all WAN links over time.
	Bandwidth *trace.Trace
	// PerLinkBandwidth, when true, applies an independent live variation
	// trace to every directed link (§8.6).
	PerLinkBandwidth bool

	// Faults injects every scripted perturbation of the run — site
	// crash+restart, link blackout/degradation, site and operator
	// stragglers, the §8.6 full resource revocation, control-plane
	// impairments — at scripted times.
	Faults []faults.Fault
	// FaultsFor computes additional faults once the initial plan is known,
	// e.g. to crash whichever site hosts the stateful aggregate.
	FaultsFor func(*physical.Plan, *topology.Topology) []faults.Fault
	// CheckpointEvery enables localized checkpointing with replication at
	// this period, plus checkpoint-driven recovery on site crashes. Zero
	// disables: crashed tasks restart empty and their state is lost.
	CheckpointEvery time.Duration

	// Ctrl, when non-nil, routes the controller's telemetry and commands
	// over the simulated WAN control plane (ctrlplane.New) instead of the
	// controller's local plane.
	Ctrl *ctrlplane.Config

	// SampleEvery sets the series bucket width (default 20 s).
	SampleEvery time.Duration
	// MaxVariants caps the combine-order enumeration (default 40).
	MaxVariants int

	// Obs, when non-nil, is shared by the engine, the network and the
	// controller: every telemetry series, decision span and adaptation
	// action of the run lands in it. Nil still records the controller's
	// action log in a run-private observer (see Result.Obs).
	Obs *obs.Observer

	// Flight, when non-nil, is attached to the engine: every simulation
	// tick appends one row of per-stage/per-link state to the ring for
	// post-mortem dumps (wasptrace).
	Flight *obs.FlightRecorder
}

func (s Scenario) withDefaults() Scenario {
	if s.Query == nil {
		s.Query = queries.TopKTopics
	}
	if s.RatePerSource == 0 {
		s.RatePerSource = 10000
	}
	if s.SampleEvery == 0 {
		s.SampleEvery = 20 * time.Second
	}
	if s.MaxVariants == 0 {
		s.MaxVariants = 40
	}
	if s.Duration == 0 {
		s.Duration = 1500 * time.Second
	}
	return s
}

// Result carries everything a figure needs from one run.
type Result struct {
	Name string
	// Ratio is the processing ratio over time (§8.3).
	Ratio []TimePoint
	// Parallelism is the total extra tasks over time, relative to the
	// initial deployment.
	Parallelism []TimePoint
	// Samples holds every sink delivery for CDFs and percentiles.
	Samples []WeightedDelay
	// Cumulative event accounting.
	Generated, Delivered, Dropped float64
	// ProcessedPct is the percentage of generated events fully processed
	// past ingest by the end of the run (Fig 12a).
	ProcessedPct float64
	// Lost/Restored account crash-lost source-equivalent events and the
	// share clawed back from checkpoints.
	Lost, Restored float64
	// Actions is the adaptation log.
	Actions []adapt.Action
	// Obs is the run's observer (the scenario's, or the controller's
	// run-private default) — the decision audit and action log behind
	// Actions.
	Obs *obs.Observer
	// InitialTasks is the task count of the initial deployment.
	InitialTasks int
	// Ticks is the number of simulation ticks the engine executed — the
	// scale sweep's throughput denominator.
	Ticks int64
	// Final is the end-of-run invariant state — the conservation balance,
	// suspended stages, pending adaptations, orphan transfers, and down
	// sites the chaos checker judges.
	Final *chaos.RunStats
}

// tickHook, when non-nil, runs after every engine tick of every Run with
// the run's name and engine. Only tests set it, to check conservation at
// every tick; when it is nil Run schedules nothing extra.
var tickHook func(run string, eng *engine.Engine, now vclock.Time)

// Run executes one scenario and collects its result.
func Run(s Scenario) (*Result, error) {
	sc := s.withDefaults()

	top := sc.Topology
	if top == nil {
		top = topology.Generate(topology.DefaultGenConfig(sc.Seed))
	}
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	if sc.Obs != nil {
		sc.Obs.Bind(sched.Now)
		net.SetObserver(sc.Obs)
	}

	if sc.Bandwidth != nil {
		net.SetGlobalFactor(sc.Bandwidth)
	}
	if sc.PerLinkBandwidth {
		pair := int64(0)
		for from := 0; from < top.N(); from++ {
			for to := 0; to < top.N(); to++ {
				if from == to {
					continue
				}
				pair++
				net.SetLinkFactor(topology.SiteID(from), topology.SiteID(to),
					trace.LiveBandwidthFactor(sc.Seed*1000+pair, sc.Duration))
			}
		}
	}

	srcSites := sc.SourceSites
	if srcSites == nil {
		srcSites = top.SitesOfKind(topology.Edge)
	}
	qcfg := queries.Config{
		SourceSites:   srcSites,
		SinkSite:      top.SitesOfKind(topology.DataCenter)[0],
		RatePerSource: sc.RatePerSource,
		RateForSite:   sc.RateForSite,
	}
	q := sc.Query(qcfg)

	plannerCfg := physical.PlannerConfig{
		ScheduleConfig: physical.ScheduleConfig{Alpha: 0.8, DefaultParallelism: 1},
		MaxVariants:    sc.MaxVariants,
	}
	best, _, err := physical.PlanQuery(q.Graph, q.Spec, top, plannerCfg)
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", q.Name, err)
	}

	eng := engine.New(sc.Engine, top, net, sched)
	if sc.Obs != nil {
		eng.SetObserver(sc.Obs)
	}
	if sc.Flight != nil {
		eng.SetFlightRecorder(sc.Flight)
	}
	if err := eng.Deploy(best.Plan); err != nil {
		return nil, fmt.Errorf("deploy %s: %w", q.Name, err)
	}

	if sc.Workload != nil {
		eng.SetWorkloadFactor(sc.Workload)
	}
	if sc.PerSourceWorkload {
		for i, op := range q.SourceOps {
			eng.SetSourceFactor(op, trace.LiveWorkloadFactor(sc.Seed*100+int64(i), sc.Duration))
		}
	}

	ctl := adapt.NewController(sc.Adapt, eng, top, net, sched,
		&adapt.ReplanSpec{Base: q.Graph, Spec: q.Spec, Current: best.Variant, MaxVariants: sc.ReplanMaxVariants})
	if sc.Obs != nil {
		ctl.SetObserver(sc.Obs)
	}

	var plane *ctrlplane.Plane
	if sc.Ctrl != nil {
		ccfg := *sc.Ctrl
		if ccfg.ControllerSite == 0 {
			ccfg.ControllerSite = qcfg.SinkSite // co-locate with the sink DC
		}
		if ccfg.Seed == 0 {
			ccfg.Seed = sc.Seed
		}
		plane = ctrlplane.New(ccfg, eng, net, top, sched, ctl.Observer())
		ctl.AttachControlPlane(plane)
		plane.Start()
		defer plane.Stop()
	}

	if sc.CheckpointEvery > 0 {
		rm := adapt.NewRecoveryManager(q.Name, sc.CheckpointEvery, eng, top, sched, nil)
		ctl.AttachRecovery(rm)
		rm.Start()
		defer rm.Stop()
	}
	fs := append([]faults.Fault(nil), sc.Faults...)
	if sc.FaultsFor != nil {
		fs = append(fs, sc.FaultsFor(best.Plan, top)...)
	}
	if len(fs) > 0 {
		inj := faults.NewInjector(eng, net, ctl.Observer())
		inj.SetRecoverer(ctl)
		if plane != nil {
			inj.SetControlPlane(plane)
		}
		if err := inj.Schedule(sched, fs); err != nil {
			return nil, fmt.Errorf("faults %s: %w", q.Name, err)
		}
	}

	res := &Result{Name: sc.Name, InitialTasks: best.Plan.TotalTasks()}
	var lastGen, lastProcessed float64

	collect := func(now vclock.Time) {
		for _, d := range eng.TakeDeliveries() {
			res.Samples = append(res.Samples, WeightedDelay{
				At: d.At, Delay: d.Delay.Seconds(), Weight: d.Count,
			})
		}
		gen, processed, _ := eng.Goodput()
		dg, dp := gen-lastGen, processed-lastProcessed
		lastGen, lastProcessed = gen, processed
		ratio := 1.0
		if dg > 0 {
			ratio = dp / dg
		}
		res.Ratio = append(res.Ratio, TimePoint{T: now, V: ratio})
		if sc.Obs != nil {
			// Periodic goodput samples feed wasptrace's SLO budget math.
			sc.Obs.Emit("goodput.sample",
				obs.F64("ratio", ratio),
				obs.F64("generated", gen),
				obs.F64("processed", processed))
		}
		res.Parallelism = append(res.Parallelism, TimePoint{
			T: now, V: float64(eng.Plan().TotalTasks() - res.InitialTasks),
		})
	}
	sampler := sched.Every(sc.SampleEvery, collect)

	eng.Start()
	if tickHook != nil {
		// Armed right after the engine at the engine's 250 ms period, so at
		// every instant it fires just after the tick.
		sched.Every(250*time.Millisecond, func(now vclock.Time) { tickHook(sc.Name, eng, now) })
	}
	ctl.Start()
	if err := sched.RunUntil(vclock.Time(sc.Duration)); err != nil {
		return nil, err
	}
	sampler.Cancel()
	ctl.Stop()
	eng.Stop()
	collect(sched.Now())

	res.Generated, res.Delivered, res.Dropped = eng.Totals()
	_, processed, _ := eng.Goodput()
	if res.Generated > 0 {
		res.ProcessedPct = 100 * processed / res.Generated
	} else {
		res.ProcessedPct = 100
	}
	res.Lost, res.Restored = eng.Lost()
	res.Ticks = eng.Ticks()
	res.Actions = ctl.Actions()
	res.Obs = ctl.Observer()
	res.Final = finalState(eng, net, res.Obs)
	if plane != nil {
		res.Final.QuarantinedRegions = plane.QuarantinedRegions()
		res.Final.UnackedCommands = plane.UnackedCommands()
		res.Final.WrongActions = plane.WrongActions()
	}
	return res, nil
}

// finalState captures the end-of-run invariant state for chaos checking.
func finalState(eng *engine.Engine, net *netsim.Network, o *obs.Observer) *chaos.RunStats {
	st := &chaos.RunStats{
		Conservation:     eng.Conservation(),
		SuspendedOps:     eng.SuspendedOps(),
		PendingReconfigs: eng.PendingReconfigs(),
		Replanning:       eng.Replanning(),
		ActiveTransfers:  net.ActiveTransfers(),
		DownSites:        eng.DownSites(),
	}
	for _, ev := range o.Events("recovery.complete") {
		if d := ev.Get("recovery_time").Duration(); d > st.MaxRecovery {
			st.MaxRecovery = d
		}
	}
	return st
}

// MeanDelayBetween averages the run's delay samples within [from, to).
func (r *Result) MeanDelayBetween(from, to time.Duration) float64 {
	return Mean(Window(r.Samples, vclock.Time(from), vclock.Time(to)))
}

// DelayPercentile returns the p-quantile of all delay samples.
func (r *Result) DelayPercentile(p float64) float64 {
	return Percentile(r.Samples, p)
}

// MeanRatioBetween averages the processing-ratio series within [from, to).
func (r *Result) MeanRatioBetween(from, to time.Duration) float64 {
	var sum float64
	n := 0
	for _, p := range r.Ratio {
		if p.T >= vclock.Time(from) && p.T < vclock.Time(to) {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}
