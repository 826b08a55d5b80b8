package experiment

import (
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
)

// The scale trajectory sweep: end-to-end runs on GenerateScale topologies
// from the testbed's size up to 1000 sites, millions of simulated users
// aggregated into region-fronting ingest sites, under the full WASP
// policy with a mid-run site slowdown to force adaptation.
//
// Every field of a ScaleCell is virtual-clock deterministic, so
// FormatScale is byte-identical for the same seed whatever the worker
// count. Host-time cost at these sizes is the repository benchmark's
// scale1000_surge workload (benchmark/README.md).

// UserEventRate is each simulated user's contribution to its region's
// ingest stream, in events/s — a planetary population of casual clients
// rather than the testbed's 8 dense feeds.
const UserEventRate = 0.01

// ScaleShape is one cell of the scale sweep.
type ScaleShape struct {
	Regions, Edges int
	// PMax caps per-operator parallelism for the adaptation controller.
	PMax int
}

// DefaultScaleShapes spans 16 → 1000 sites with a parallelism sweep at
// each size the oracle regime covers, and the planet-scale headline cell.
var DefaultScaleShapes = []ScaleShape{
	{4, 3, 1}, {4, 3, 4},
	{8, 7, 1}, {8, 7, 4},
	{16, 15, 1}, {16, 15, 4},
	{50, 19, 4},
}

// ScaleCell is one completed cell of the sweep.
type ScaleCell struct {
	Regions, Edges, Sites, PMax int
	// Users is the topology's total simulated user population.
	Users int
	// InitialTasks / FinalTasks bracket the deployment size.
	InitialTasks, FinalTasks int
	// Ticks is the engine's simulation tick count.
	Ticks int64
	// Actions is the number of adaptation actions taken.
	Actions int
	// ProcessedPct is the share of generated events fully processed.
	ProcessedPct float64
	// AdaptP50 is the median end-to-end adaptation latency in virtual
	// seconds: one cycle's detect→plan→halt→transfer→resume total.
	AdaptP50 float64
}

// RunScale executes the sweep. duration 0 means 500 s per cell; nil
// shapes means DefaultScaleShapes.
func RunScale(seed int64, duration time.Duration, shapes []ScaleShape) ([]ScaleCell, error) {
	if duration == 0 {
		duration = 500 * time.Second
	}
	if shapes == nil {
		shapes = DefaultScaleShapes
	}
	return sweep(shapes, func(sh ScaleShape) (ScaleCell, error) {
		return runScaleCell(seed, duration, sh)
	})
}

// IngestPlan aggregates the topology's user population into at most 8
// region-fronting ingest sites (plan enumeration is exponential in the
// source count): each region's first edge site fronts it, regions beyond
// the ingest budget fold into the fronting sites round-robin.
func IngestPlan(top *topology.Topology) (sites []topology.SiteID, rate map[topology.SiteID]float64) {
	regionSites := top.RegionSites()
	k := min(8, len(regionSites))
	rate = make(map[topology.SiteID]float64, k)
	for i := 0; i < k; i++ {
		// regionSites[i][0] is the region's hub; edges follow.
		sites = append(sites, regionSites[i][1])
	}
	for r, members := range regionSites {
		users := 0
		for _, s := range members {
			users += top.Site(s).Users
		}
		rate[sites[r%k]] += float64(users) * UserEventRate
	}
	return sites, rate
}

func runScaleCell(seed int64, duration time.Duration, sh ScaleShape) (ScaleCell, error) {
	top, err := topology.GenerateScale(topology.DefaultScaleConfig(seed, sh.Regions, sh.Edges))
	if err != nil {
		return ScaleCell{}, err
	}
	ingest, rate := IngestPlan(top)

	acfg := AdaptConfig(adapt.PolicyWASP)
	acfg.PMax = sh.PMax
	o := obs.New(nil)
	sc := Scenario{
		Name:              fmt.Sprintf("scale-%dx%d-p%d", sh.Regions, sh.Edges, sh.PMax),
		Seed:              seed,
		Duration:          duration,
		Topology:          top,
		SourceSites:       ingest,
		RateForSite:       func(s topology.SiteID) float64 { return rate[s] },
		Engine:            EngineConfig(adapt.PolicyWASP),
		Adapt:             acfg,
		MaxVariants:       12,
		ReplanMaxVariants: 12,
		// A ×2 workload surge in the back 2/5 of the run plus a mid-run
		// slowdown of the hottest unpinned stage's host force the
		// controller through detect → plan → transfer at every scale.
		Workload: trace.Steps(duration/5, 1, 1, 1, 2, 2),
		FaultsFor: func(pp *physical.Plan, t *topology.Topology) []faults.Fault {
			return []faults.Fault{{
				Kind: faults.SiteSlow, At: 2 * duration / 5, For: duration / 5,
				Site: crashTargetSite(pp), Factor: slowFactorFor(pp),
			}}
		},
		Obs: o,
	}

	res, err := Run(sc)
	if err != nil {
		return ScaleCell{}, fmt.Errorf("scale %dx%d p%d: %w", sh.Regions, sh.Edges, sh.PMax, err)
	}
	return ScaleCell{
		Regions: sh.Regions, Edges: sh.Edges, Sites: top.N(), PMax: sh.PMax,
		Users:        top.TotalUsers(),
		InitialTasks: res.InitialTasks,
		FinalTasks:   res.InitialTasks + int(res.Parallelism[len(res.Parallelism)-1].V),
		Ticks:        res.Ticks,
		Actions:      len(res.Actions),
		ProcessedPct: res.ProcessedPct,
		AdaptP50:     obs.Quantiles(cycleSeconds(o), 0.50)[0],
	}, nil
}

// cycleSeconds sums each adaptation cycle's phase durations into one
// end-to-end latency sample. Every cycle emits one adapt.latency event
// per phase in order, so the i-th sample of each phase belongs to the
// i-th cycle.
func cycleSeconds(o *obs.Observer) []float64 {
	ps, _ := o.AdaptLatency()
	n := -1
	for _, phase := range AdaptPhases {
		if n < 0 || len(ps[phase]) < n {
			n = len(ps[phase])
		}
	}
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	for _, phase := range AdaptPhases {
		for i := 0; i < n; i++ {
			out[i] += ps[phase][i]
		}
	}
	return out
}

// slowFactorFor sizes the straggler's capacity fraction to the victim
// stage's actual load, so the slowdown overwhelms it at every sweep
// scale: user-derived ingest rates span two orders of magnitude between
// the 16-site and 1000-site cells, and a fixed factor that cripples one
// is a no-op for the other. The slowed capacity lands at half the
// victim's expected input.
func slowFactorFor(pp *physical.Plan) float64 {
	bestID, inRate := hottestMovable(pp)
	if bestID < 0 {
		return 0.25
	}
	cost := pp.Graph.Operator(bestID).CostPerEvent
	if cost <= 0 {
		cost = 1
	}
	f := 0.5 * inRate * cost / ExperimentSlotRate
	return min(max(f, 0.001), 0.9)
}

// FormatScale renders the sweep — identical bytes for the same seed
// regardless of worker count or machine speed.
func FormatScale(cells []ScaleCell) string {
	out := "Scale trajectory: hierarchical planning on GenerateScale topologies (WASP policy, mid-run site slowdown)\n"
	var rows [][]string
	for _, c := range cells {
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.Sites),
			fmt.Sprintf("%dx%d", c.Regions, c.Edges),
			fmt.Sprintf("%d", c.PMax),
			fmt.Sprintf("%d", c.Users),
			fmt.Sprintf("%d→%d", c.InitialTasks, c.FinalTasks),
			fmt.Sprintf("%d", c.Ticks),
			fmt.Sprintf("%d", c.Actions),
			Fmt(c.AdaptP50),
			Fmt(c.ProcessedPct),
		})
	}
	return out + Table([]string{"sites", "shape", "p_max", "users", "tasks", "ticks", "actions", "adapt_p50_s", "processed_pct"}, rows)
}
