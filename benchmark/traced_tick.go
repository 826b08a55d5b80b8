package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"github.com/wasp-stream/wasp/internal/chaos"
	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/experiment"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/topology"
)

// perCall times n calls of fn and returns the mean.
func perCall(n int, fn func()) time.Duration {
	t0 := now()
	for i := 0; i < n; i++ {
		fn()
	}
	return (now() - t0) / time.Duration(n)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ns(d time.Duration) float64 { return float64(d) }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timedRun is experiment.Run under recover, with the CPU time it took. Whole
// runs are compared on the CPU clock, like the end-to-end metrics; spans and
// drills are too short for it and read the wall clock.
func timedRun(sc experiment.Scenario) (*experiment.Result, time.Duration, error) {
	var res *experiment.Result
	c0 := cpuNow()
	err := guard(func() (err error) {
		res, err = experiment.Run(sc)
		return err
	})
	return res, cpuNow() - c0, err
}

// ratioPct is the median over cells of a[i]/b[i] − 1, in percent: the median
// keeps one stalled cell from deciding an overhead of a few percent.
func ratioPct(a, b []time.Duration) float64 {
	var rs []float64
	for i := range a {
		if b[i] > 0 {
			rs = append(rs, 100*(float64(a[i])/float64(b[i])-1))
		}
	}
	return median(rs)
}

// traced measures the first tracedCells cells four ways — as the end-to-end
// run does, with observability on, with the flight recorder too, and through
// the traced drive — then drills single layers on a rig built from cell 0.
func (w *tickWorkload) traced(tr *tracer) (map[string]float64, *outcome, error) {
	out := newOutcome()
	v := map[string]float64{}
	k := min(len(w.cells), w.tracedCells)

	var plainT, obsT, flightT, tracedT []time.Duration
	var runMS []float64
	var cells []*tracedCell
	var pool []experiment.WeightedDelay
	var cycles []float64
	var generated, processed float64
	var cellTotal time.Duration // wall clock, like the spans inside
	for i := 0; i < k; i++ {
		sc := w.cells[i]
		plain, d, err := timedRun(sc)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		plainT = append(plainT, d)
		runMS = append(runMS, ms(d))

		sc.Obs = obs.New(nil)
		ref, d, err := timedRun(sc)
		if err != nil {
			return nil, nil, fmt.Errorf("%s with observability: %w", sc.Name, err)
		}
		obsT = append(obsT, d)

		sc.Obs, sc.Flight = obs.New(nil), obs.NewFlightRecorder(obs.DefaultFlightCapacity)
		if _, d, err = timedRun(sc); err != nil {
			return nil, nil, fmt.Errorf("%s with flight recorder: %w", sc.Name, err)
		}
		flightT = append(flightT, d)

		sc.Obs, sc.Flight = obs.New(nil), nil
		tr.cell = i
		tr.begin("cell")
		c0 := cpuNow()
		cell, res, err := runTracedCell(&sc, tr)
		tracedT = append(tracedT, cpuNow()-c0)
		cellTotal += tr.end()
		tr.cell = -1
		if err != nil {
			return nil, nil, fmt.Errorf("%s traced: %w", sc.Name, err)
		}
		cells = append(cells, cell)

		// The traced stack must be the real stack, and observability
		// must not steer the simulation.
		out.attempted += 2
		if diff := sameRun(res, ref); diff != "" {
			out.failf("%s: traced drive: %s", sc.Name, diff)
		}
		if diff := sameRun(plain, ref); diff != "" {
			out.failf("%s: observability off: %s", sc.Name, diff)
		}
		row, broken := w.cellRow(&sc, res)
		out.rows = append(out.rows, row)
		out.ops += res.Ticks
		for _, inv := range broken {
			out.violations[inv] = append(out.violations[inv], fmt.Sprintf("%s(seed %d)", sc.Name, sc.Seed))
		}
		if len(broken) > 0 {
			v["invariant_violations"]++
		}
		if slices.Contains(broken, "conservation") {
			v["conservation_violations"]++
		}
		pool = append(pool, res.Samples...)
		cycles = append(cycles, adaptCycles(res.Obs)...)
		generated += cell.generated
		processed += cell.processed
	}
	out.attempted++
	if err := tr.checkCells(); err != nil {
		out.failf("span tree: %v", err)
	}

	v["trace_overhead_pct"] = ratioPct(tracedT, obsT)
	v["obs.on_overhead_pct"] = ratioPct(obsT, plainT)
	v["engine.flight_overhead_pct"] = ratioPct(flightT, obsT)
	v["experiment.run_ms_p50"] = quantile(runMS, 0.50)
	v["experiment.run_ms_p95"] = quantile(runMS, 0.95)
	v["sim_processed_pct"] = 100
	if generated > 0 {
		v["sim_processed_pct"] = 100 * processed / generated
	}
	if len(pool) > 0 {
		v["sim_delay_p95_s"] = experiment.Percentile(pool, 0.95)
	}
	v["sim_adapt_p50_s"] = median(cycles)

	var tickUS []float64
	for _, c := range cells {
		v["vclock.events"] += float64(c.steps)
		v["vclock.other_events"] += float64(c.otherEvents)
		v["engine.ticks"] += float64(len(c.tickNS))
		for _, d := range c.tickNS {
			tickUS = append(tickUS, float64(d)/1e3)
		}
		o := c.ctl.Observer()
		v["adapt.actions"] += float64(len(c.ctl.Actions()))
		v["adapt.aborts"] += float64(len(o.Events("adapt.abort")))
		v["adapt.rejected_branches"] += float64(len(o.Events("reject")))
		v["faults.injected"] += float64(len(o.Events("fault.inject")))
		v["obs.events"] += float64(len(o.Timeline()))
		if c.plane != nil {
			reg := o.Registry()
			delivered := reg.Counter("wasp_ctrl_reports_total").Value()
			var dropped float64
			for _, reason := range []string{"partition", "blackout", "loss"} {
				dropped += reg.Counter("wasp_ctrl_report_drops_total", "reason", reason).Value()
			}
			v["ctrlplane.reports_sent"] += delivered + dropped
			v["ctrlplane.reports_dropped"] += dropped
			v["ctrlplane.commands_sent"] += reg.Counter("wasp_ctrl_commands_total").Value()
			v["ctrlplane.commands_resent"] += reg.Counter("wasp_ctrl_command_retries_total").Value()
			v["ctrlplane.commands_fenced"] += float64(len(o.Events("ctrl.command_fenced")))
		}
		if c.rm != nil {
			for s := 0; s < c.sc.Topology.N(); s++ {
				v["state.store_bytes"] += float64(c.rm.Store().BytesAt(topology.SiteID(s)))
			}
		}
	}
	v["engine.tick_us_p50"] = quantile(tickUS, 0.50)
	v["engine.tick_us_p99"] = quantile(tickUS, 0.99)
	v["engine.tick_share"] = float64(tr.selfTotal("drive")) / float64(cellTotal)
	rounds := tr.micros("adapt.round")
	v["adapt.rounds"] = float64(len(rounds))
	v["adapt.round_us_p50"] = quantile(rounds, 0.50)
	v["adapt.round_us_p99"] = quantile(rounds, 0.99)
	v["adapt.round_share"] = float64(tr.total("adapt.round")) / float64(cellTotal)
	v["adapt.longterm_us_p50"] = median(tr.micros("adapt.longterm"))
	v["adapt.checkpoint_us_p50"] = median(tr.micros("adapt.checkpoint"))
	v["adapt.recover_us_p50"] = median(tr.micros("adapt.recover"))
	v["physical.plan_query_ms_p50"] = median(tr.micros("setup.plan")) / 1e3
	v["engine.deploy_us"] = median(tr.micros("engine.deploy"))

	if err := w.drill(cells[0], v); err != nil {
		return nil, nil, err
	}
	return v, out, nil
}

// adaptCycles sums each adaptation cycle's detect, plan, halt, transfer and
// resume phases into one latency in simulated seconds. Every cycle emits one
// adapt.latency event per phase in order, so the i-th sample of each phase
// belongs to the i-th cycle.
func adaptCycles(o *obs.Observer) []float64 {
	byPhase := map[string][]float64{}
	for _, ev := range o.Events("adapt.latency") {
		phase := ev.Get("phase").Str()
		byPhase[phase] = append(byPhase[phase], ev.Get("dur").Duration().Seconds())
	}
	n := -1
	for _, phase := range experiment.AdaptPhases {
		if n < 0 || len(byPhase[phase]) < n {
			n = len(byPhase[phase])
		}
	}
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	for _, phase := range experiment.AdaptPhases {
		for i := range out {
			out[i] += byPhase[phase][i]
		}
	}
	return out
}

// drill times single layers' public functions on inputs taken from a finished
// traced cell and from a rig, the same scenario driven to mid-run with no
// controller and no faults, which the mutating drills then take apart.
func (w *tickWorkload) drill(done *tracedCell, v map[string]float64) error {
	sc := *done.sc
	sc.Obs, sc.Faults, sc.FaultsFor = obs.New(nil), nil, nil
	quiet := newTracer()
	rig, err := compose(&sc, quiet)
	if err != nil {
		return fmt.Errorf("drill rig: %w", err)
	}
	rig.eng.Start()
	if err := rig.sched.RunUntil(sc.Duration / 4); err != nil {
		return err
	}

	drillVclock(v)
	drillObs(done, v)
	drillTopology(&sc, v)
	drillExperiment(v)
	if err := drillMetrics(rig, v); err != nil {
		return err
	}
	drillMatching(sc.Seed, v)
	if err := drillNetsim(rig, v); err != nil {
		return err
	}
	if done.plane != nil {
		final := done.sched.Now()
		v["ctrlplane.snapshot_us"] = us(perCall(200, func() { done.plane.Snapshot(final) }))
	}
	if len(done.faults) > 0 {
		script := make([]string, len(done.faults))
		for i, f := range done.faults {
			script[i] = f.String()
		}
		text := strings.Join(script, "; ")
		if _, err := faults.Parse(text); err != nil {
			return fmt.Errorf("faults.Parse(%q): %w", text, err)
		}
		v["faults.parse_us"] = us(perCall(200, func() { _, _ = faults.Parse(text) }))
	}
	if w.fullInvariants {
		cfg := chaos.Config{
			Sites: sc.Topology.N(), Duration: sc.Duration,
			CtrlRegions: len(ctrlplane.Domains(sc.Topology, ctrlplane.Config{})),
		}
		v["chaos.generate_us"] = us(perCall(200, func() { chaos.Generate(sc.Seed, cfg) }))
	}
	if done.rm != nil {
		if err := drillState(rig, v); err != nil {
			return err
		}
	}
	return drillEngine(rig, v)
}

func drillObs(done *tracedCell, v map[string]float64) {
	o := obs.New(nil)
	v["obs.span_ns"] = ns(perCall(20000, func() { o.StartSpan("drill").Finish() }))
	c := o.Registry().Counter("drill_total")
	v["obs.counter_inc_ns"] = ns(perCall(1_000_000, c.Inc))
	full := done.ctl.Observer()
	v["obs.export_jsonl_ms"] = ms(perCall(3, func() { _ = full.WriteJSONL(io.Discard) }))
}
