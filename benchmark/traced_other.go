package main

import (
	"fmt"
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/experiment"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/placement"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/stream"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
	"github.com/wasp-stream/wasp/internal/workload"
)

// tracedPlanRequests is how many requests the traced run of plan_storm serves.
const tracedPlanRequests = 600

// traced serves the head of the request list with a span around each request,
// named after its kind, then drills the planner's layers on the first target.
func (w *planWorkload) traced(tr *tracer) (map[string]float64, *outcome, error) {
	out := newOutcome()
	v := map[string]float64{}
	n := min(len(w.requests), tracedPlanRequests)
	refused := 0
	for i := range w.requests[:n] {
		req := &w.requests[i]
		name := "session_plan"
		if req.cold {
			name = "plan_query"
		}
		name = fmt.Sprintf("%s.%d", name, req.target.top.N())
		var ans string
		var err error
		tr.cell = i
		tr.in(name, func() {
			err = guard(func() (err error) {
				ans, err = req.plan(req.cold, 0)
				return err
			})
		})
		tr.cell = -1
		out.attempted++
		if err != nil {
			out.failf("request %d on %s: %v", i, req.target.name, err)
			ans = "error"
		}
		if ans == "refused" {
			refused++
		}
		out.rowf("%d %s cold=%v rate=%.6f %s", i, req.target.name, req.cold, req.rateFactor, ans)
	}
	out.ops = int64(n)
	v["placement.infeasible_share"] = float64(refused) / float64(n)
	warm := tr.micros("session_plan.16")
	v["physical.session_plan_ms_p50"] = quantile(warm, 0.50) / 1e3
	v["physical.session_plan_ms_p99"] = quantile(warm, 0.99) / 1e3
	v["physical.plan_query_ms_p50"] = median(tr.micros("plan_query.16")) / 1e3

	tg := w.requests[0].target
	for _, r := range w.requests {
		if r.target.top.N() <= 16 {
			tg = r.target
			break
		}
	}
	if err := drillPlanner(tg, v); err != nil {
		return nil, nil, err
	}
	if err := drillPlacement(out, v); err != nil {
		return nil, nil, err
	}
	cfg := topology.DefaultGenConfig(1)
	v["topology.generate_us"] = us(perCall(200, func() { topology.Generate(cfg) }))
	scale := topology.DefaultScaleConfig(1, scaleRegions, scaleEdges)
	v["topology.generate_scale_ms"] = ms(perCall(3, func() { _, _ = topology.GenerateScale(scale) }))
	return v, out, nil
}

// drillPlanner times the steps physical.PlanQuery is made of, on one target.
func drillPlanner(tg *planTarget, v map[string]float64) error {
	spec, base := tg.query.Spec, tg.query.Graph
	trees := plan.EnumerateTrees(len(spec.Inputs), tg.maxVariants)
	v["plan.variants"] = float64(len(trees))
	v["plan.enumerate_us"] = us(perCall(200, func() { plan.EnumerateTrees(len(spec.Inputs), tg.maxVariants) }))
	i := 0
	var expandErr error
	v["plan.expand_us"] = us(perCall(len(trees)*5, func() {
		if _, err := spec.Expand(base, trees[i%len(trees)]); err != nil {
			expandErr = err
		}
		i++
	}))
	if expandErr != nil {
		return fmt.Errorf("drill: expand: %w", expandErr)
	}

	variant, err := spec.Expand(base, trees[0])
	if err != nil {
		return fmt.Errorf("drill: expand: %w", err)
	}
	pp, err := physical.FromLogical(variant.Graph)
	if err != nil {
		return fmt.Errorf("drill: %w", err)
	}
	cfg := plannerConfig(tg.maxVariants).ScheduleConfig
	cfg.Workspace = &physical.Workspace{}
	if err := physical.Schedule(pp, tg.top, cfg); err != nil {
		return fmt.Errorf("drill: schedule: %w", err)
	}
	v["physical.schedule_us"] = us(perCall(500, func() { _ = physical.Schedule(pp, tg.top, cfg) }))
	v["physical.estimate_cost_us"] = us(perCall(2000, func() { _, _, _ = physical.EstimateCost(pp, tg.top, 1) }))

	id, _ := hottestMovable(pp)
	if id < 0 {
		return fmt.Errorf("drill: plan has no movable stage")
	}
	free := make([]int, tg.top.N())
	used := pp.SlotsUsed(tg.top.N())
	for s := range free {
		free[s] = tg.top.Slots(topology.SiteID(s)) - used[s]
	}
	for _, s := range pp.Stages[id].Sites {
		free[s]++ // the stage's own slots count as available
	}
	if _, err := physical.ReassignStage(pp, id, tg.top, cfg, free); err != nil {
		return fmt.Errorf("drill: reassign: %w", err)
	}
	v["physical.reassign_stage_us"] = us(perCall(2000, func() { _, _ = physical.ReassignStage(pp, id, tg.top, cfg, free) }))
	return nil
}

// stageProblem is the placement program of a representative stage on the
// topology: the ingest sites' aggregated streams flowing to the first site.
func stageProblem(top *topology.Topology) *placement.Problem {
	ingest, rate := experiment.IngestPlan(top)
	slots := make([]int, top.N())
	for s := range slots {
		slots[s] = top.Slots(topology.SiteID(s))
	}
	var ups []placement.Endpoint
	var inBytes float64
	for _, s := range ingest {
		ups = append(ups, placement.Endpoint{Site: s, Weight: rate[s] * 240})
		inBytes += rate[s] * 240
	}
	for i := range ups {
		ups[i].Weight /= inBytes
	}
	return &placement.Problem{
		Sites:             top.N(),
		Parallelism:       min(64, top.TotalSlots()/2),
		AvailableSlots:    slots,
		Upstream:          ups,
		Downstream:        []placement.Endpoint{{Site: 0, Weight: 1}},
		InputBytesPerSec:  inBytes,
		OutputBytesPerSec: inBytes * 0.02,
		Alpha:             0.8,
		Latency:           top.Latency,
		Bandwidth: func(from, to topology.SiteID) float64 {
			return top.BaseBandwidth(from, to).BytesPerSec()
		},
		Pinned: -1,
	}
}

// drillPlacement times the exact solver at 16 and 64 sites and the
// hierarchical one at 256 and 1000, and holds the hierarchical answer to the
// exact one wherever both are run.
func drillPlacement(out *outcome, v map[string]float64) error {
	for _, shape := range []struct {
		regions, edges int
		exact          bool
	}{{4, 3, true}, {8, 7, true}, {16, 15, false}, {scaleRegions, scaleEdges, false}} {
		top, err := topology.GenerateScale(topology.DefaultScaleConfig(1, shape.regions, shape.edges))
		if err != nil {
			return fmt.Errorf("drill: %w", err)
		}
		pr := stageProblem(top)
		regions := top.RegionSites()
		hs := &placement.HierScratch{}
		hier, err := pr.SolveHierarchicalInto(regions, hs)
		if err != nil {
			return fmt.Errorf("drill: hierarchical solve at %d sites: %w", top.N(), err)
		}
		if !shape.exact {
			v[fmt.Sprintf("placement.solve_hier_us_%d", top.N())] = us(perCall(500, func() { _, _ = pr.SolveHierarchicalInto(regions, hs) }))
			continue
		}
		hierTasks, hierCost := slices.Clone(hier.TasksPerSite), hier.Cost
		sc := &placement.Scratch{}
		exact, err := pr.SolveInto(sc)
		if err != nil {
			return fmt.Errorf("drill: exact solve at %d sites: %w", top.N(), err)
		}
		out.attempted++
		if !slices.Equal(exact.TasksPerSite, hierTasks) {
			out.failf("placement at %d sites: hierarchical %v, exact %v", top.N(), hierTasks, exact.TasksPerSite)
		}
		if exact.Cost > 0 {
			v["placement.hier_gap_pct"] = max(v["placement.hier_gap_pct"], 100*(hierCost-exact.Cost)/exact.Cost)
		}
		v[fmt.Sprintf("placement.solve_exact_us_%d", top.N())] = us(perCall(2000, func() { _, _ = pr.SolveInto(sc) }))
	}
	return nil
}

// tracedRecordEvents is how many events of each batch the operator drills
// push through a single operator.
const tracedRecordEvents = 200_000

// traced replays each batch once with a span around the pipeline run, then
// drills the operators the two pipelines are made of on the same events.
func (w *recordWorkload) traced(tr *tracer) (map[string]float64, *outcome, error) {
	out := newOutcome()
	v := map[string]float64{}
	for _, p := range []struct {
		name    string
		rp      *queries.RecordPipeline
		streams [][]stream.Event
	}{
		{"replay.ysb", queries.BuildYSBRecord(recordSources, ysbWindow), w.adStreams},
		{"replay.topk", queries.BuildTopKRecord(recordSources, topkK, topkWindow), w.tweetStreams},
	} {
		inputs := stream.Inputs{}
		for i, src := range p.rp.Sources {
			inputs[src] = p.streams[i]
			v["stream.records_in"] += float64(len(p.streams[i]))
		}
		var err error
		tr.in(p.name, func() {
			err = guard(func() error {
				return p.rp.Pipeline.Run(inputs, stream.RunConfig{WatermarkEvery: recordWatermarkEvery})
			})
		})
		out.attempted++
		if err != nil {
			out.failf("%s: %v", p.name, err)
			continue
		}
		sink := p.rp.Pipeline.SinkEvents(p.rp.Sink)
		v["stream.records_out"] += float64(len(sink))
		out.rowf("%s: %d results %s", p.name, len(sink), sinkDigest(sink))
	}
	out.ops = int64(v["stream.records_in"])

	drop := func(stream.Event) {}
	ads := workload.YSBStream(w.ads[:min(len(w.ads), tracedRecordEvents)])
	tweets := workload.TweetStream(w.tweets[:min(len(w.tweets), tracedRecordEvents)])
	feed := func(h stream.Handler, events []stream.Event) time.Duration {
		t0 := now()
		for _, e := range events {
			h.OnEvent(0, e, drop)
		}
		return (now() - t0) / time.Duration(len(events))
	}
	v["stream.filter_ns"] = ns(feed(&stream.Filter{Pred: func(e stream.Event) bool {
		return e.Value.(workload.AdEvent).EventType == workload.AdView
	}}, ads))
	v["stream.map_ns"] = ns(feed(&stream.Map{Fn: func(e stream.Event) stream.Event {
		return stream.Event{Time: e.Time, Key: e.Key, Value: e.Value.(workload.AdEvent).CampaignID}
	}}, ads))

	// The windowed operators are fed window by window; each window's state
	// is snapshotted once full and then flushed by a watermark.
	count := stream.Count(ysbWindow)
	var watermarkUS, snapshotUS []float64
	var inWindows time.Duration
	for lo := 0; lo < len(ads); {
		end := (ads[lo].Time/vclock.Time(ysbWindow) + 1) * vclock.Time(ysbWindow)
		hi := lo
		for hi < len(ads) && ads[hi].Time < end {
			hi++
		}
		inWindows += feed(count, ads[lo:hi]) * time.Duration(hi-lo)
		t0 := now()
		if _, err := count.SnapshotState(); err != nil {
			return nil, nil, fmt.Errorf("drill: window snapshot: %w", err)
		}
		snapshotUS = append(snapshotUS, us(now()-t0))
		t0 = now()
		count.OnWatermark(end, drop)
		watermarkUS = append(watermarkUS, us(now()-t0))
		lo = hi
	}
	v["stream.window_count_ns"] = ns(inWindows / time.Duration(len(ads)))
	v["stream.watermark_us"] = median(watermarkUS)
	v["stream.snapshot_us"] = median(snapshotUS)
	v["stream.topk_ns"] = ns(feed(&stream.WindowTopK{
		Size: topkWindow, K: topkK,
		TopicFn: func(e stream.Event) string { return e.Value.(workload.Tweet).Topic },
	}, tweets))

	const gen = 100_000
	dur := time.Duration(float64(gen) / ratePerSource * float64(time.Second))
	v["workload.gen_ysb_ns"] = ns(perCall(3, func() {
		workload.GenerateYSB(workload.YSBConfig{Seed: 1, Campaigns: 100, Duration: dur})
	}) / gen)
	v["workload.gen_tweets_ns"] = ns(perCall(3, func() {
		workload.GenerateTweets(workload.TwitterConfig{Seed: 1, Topics: 1000, Diurnal: true, Duration: dur})
	}) / gen)
	return v, out, nil
}
