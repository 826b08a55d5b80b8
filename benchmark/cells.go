package main

import (
	"errors"
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/chaos"
	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/experiment"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
)

// The three tick workloads are lists of experiment.Scenario cells. A cell is
// pure input: its topology, traces and fault schedule are generated from the
// cell seed during set-up, and the program under test sees nothing else.

// cellSeed derives cell i's seed from the run seed (splitmix64). 31 bits keep
// the seed arithmetic inside experiment.Run (Seed*1000+pair) far from
// overflow.
func cellSeed(seed int64, workload string, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)
	for _, c := range []byte(workload) {
		x = (x ^ uint64(c)) * 0xbf58476d1ce4e5b9
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>33) + 1
}

// Every Scenario default the traced drive has to mirror is set explicitly, so
// experiment.Run and the drive composed in drive.go read the same values.
const (
	monitorEvery  = 40 * time.Second // adapt.Config's default period
	sampleEvery   = 20 * time.Second
	ratePerSource = 10000
	paperVariants = 40
)

func waspAdapt() adapt.Config {
	cfg := experiment.AdaptConfig(adapt.PolicyWASP)
	cfg.MonitorInterval = monitorEvery
	return cfg
}

func baseScenario(name string, seed int64, top *topology.Topology, duration time.Duration, query experiment.QueryBuilder) experiment.Scenario {
	return experiment.Scenario{
		Name:          name,
		Seed:          seed,
		Duration:      duration,
		Query:         query,
		RatePerSource: ratePerSource,
		Topology:      top,
		Engine:        experiment.EngineConfig(adapt.PolicyWASP),
		Adapt:         waspAdapt(),
		SampleEvery:   sampleEvery,
		MaxVariants:   paperVariants,
	}
}

// buildQuery is the query experiment.Run builds for the scenario.
func buildQuery(sc *experiment.Scenario) *queries.Query {
	srcSites := sc.SourceSites
	if srcSites == nil {
		srcSites = sc.Topology.SitesOfKind(topology.Edge)
	}
	return sc.Query(queries.Config{
		SourceSites:   srcSites,
		SinkSite:      sc.Topology.SitesOfKind(topology.DataCenter)[0],
		RatePerSource: sc.RatePerSource,
		RateForSite:   sc.RateForSite,
	})
}

func plannerConfig(maxVariants int) physical.PlannerConfig {
	return physical.PlannerConfig{
		ScheduleConfig: physical.ScheduleConfig{Alpha: 0.8, DefaultParallelism: 1},
		MaxVariants:    maxVariants,
	}
}

// plannable probes whether the scenario's query can be placed on its topology
// at all. The first combine order is a prefix of every larger enumeration, so
// a scenario that passes cannot be refused by experiment.Run's full search.
func plannable(sc *experiment.Scenario) (bool, error) {
	q := buildQuery(sc)
	_, _, err := physical.PlanQuery(q.Graph, q.Spec, sc.Topology, plannerConfig(1))
	if errors.Is(err, physical.ErrNoCandidate) {
		return false, nil
	}
	return err == nil, err
}

// testbedCell draws §8.2 testbed topologies until build yields a plannable
// scenario: the generator redraws inputs the planner would refuse, the way
// chaos.Generate redraws incoherent schedules.
func testbedCell(seed int64, workload string, i int, build func(cs int64, top *topology.Topology) experiment.Scenario) (experiment.Scenario, error) {
	const redraws = 20
	for k := 0; k < redraws; k++ {
		cs := cellSeed(seed, workload, i+k*1_000_003)
		sc := build(cs, topology.Generate(topology.DefaultGenConfig(cs)))
		ok, err := plannable(&sc)
		if err != nil {
			return sc, fmt.Errorf("%s: probe: %w", sc.Name, err)
		}
		if ok {
			return sc, nil
		}
	}
	return experiment.Scenario{}, fmt.Errorf("%s cell %d: no plannable topology in %d draws", workload, i, redraws)
}

var paperQueries = []struct {
	name  string
	build experiment.QueryBuilder
}{
	{"ysb", queries.YSBCampaign},
	{"topk", queries.TopKTopics},
	{"eoi", queries.EventsOfInterest},
}

const paper16Duration = 1500 * time.Second

// paper16Cell is one run on the §8.2 testbed: queries round-robin, even cells
// under the Fig-8 script, odd cells under §8.6 live variation with long-term
// re-planning.
func paper16Cell(seed int64, i int) (experiment.Scenario, error) {
	q := paperQueries[i%len(paperQueries)]
	return testbedCell(seed, "paper16_dynamics", i, func(cs int64, top *topology.Topology) experiment.Scenario {
		sc := baseScenario(fmt.Sprintf("paper16-%d-%s", i, q.name), cs, top, paper16Duration, q.build)
		if i%2 == 0 {
			phase := paper16Duration / 5
			sc.Workload = trace.Steps(phase, 1, 2, 1, 1, 1)
			sc.Bandwidth = trace.Steps(phase, 1, 1, 1, 0.5, 1)
		} else {
			sc.PerSourceWorkload = true
			sc.PerLinkBandwidth = true
			// §6.2: long-term dynamics are met by periodic background
			// re-planning beside the reactive loop.
			sc.Adapt.LongTermReplanEvery = paper16Duration / 2
		}
		return sc
	})
}

const (
	scaleDuration = 4000 * time.Second
	scaleRegions  = 50
	scaleEdges    = 19
	scaleOnsets   = 6 // straggler onsets per topology
	scaleVariants = 12
	scalePMax     = 4
)

// scaleInput is one generated 1000-site topology with its ingest plan; the
// straggler onsets share it.
type scaleInput struct {
	seed   int64
	top    *topology.Topology
	ingest []topology.SiteID
	rate   map[topology.SiteID]float64
}

func genScaleInput(seed int64, t int) (*scaleInput, error) {
	cs := cellSeed(seed, "scale1000_surge", t)
	top, err := topology.GenerateScale(topology.DefaultScaleConfig(cs, scaleRegions, scaleEdges))
	if err != nil {
		return nil, err
	}
	in := &scaleInput{seed: cs, top: top}
	in.ingest, in.rate = experiment.IngestPlan(top)
	return in, nil
}

// scaleCell runs top-k on a 1000-site topology with a ×2 surge in the last
// 2/5 of the run and one straggler, sized to the victim stage's load, whose
// onset slides with k.
func scaleCell(in *scaleInput, t, k int) experiment.Scenario {
	sc := baseScenario(fmt.Sprintf("scale1000-%d-%d", t, k), in.seed, in.top, scaleDuration, queries.TopKTopics)
	sc.SourceSites = in.ingest
	sc.RateForSite = func(s topology.SiteID) float64 { return in.rate[s] }
	sc.Adapt.PMax = scalePMax
	sc.MaxVariants = scaleVariants
	sc.ReplanMaxVariants = scaleVariants
	sc.Workload = trace.Steps(scaleDuration/5, 1, 1, 1, 2, 2)
	onset := scaleDuration/10 + time.Duration(k)*scaleDuration/10
	sc.FaultsFor = func(pp *physical.Plan, _ *topology.Topology) []faults.Fault {
		id, inRate := hottestMovable(pp)
		if id < 0 {
			return nil
		}
		return []faults.Fault{{
			Kind: faults.SiteSlow, At: onset, For: scaleDuration / 5,
			Site: pp.Stages[id].Sites[0], Factor: slowFactor(pp, id, inRate),
		}}
	}
	return sc
}

// hottestMovable is the unpinned operator with the highest expected input
// rate: the straggler victim that hurts most and that adaptation can move.
func hottestMovable(pp *physical.Plan) (plan.OpID, float64) {
	inRate, _, _, err := pp.Graph.ExpectedRates(1)
	if err != nil {
		return -1, 0
	}
	best := plan.OpID(-1)
	for _, id := range pp.Graph.OperatorIDs() {
		op := pp.Graph.Operator(id)
		if op.Kind == plan.KindSource || op.Kind == plan.KindSink || op.PinnedSite != plan.NoSite {
			continue
		}
		if best < 0 || inRate[id] > inRate[best] {
			best = id
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, inRate[best]
}

// slowFactor leaves the victim site half the capacity its stage's expected
// input needs, so the slowdown bites whatever the user-derived rates are.
func slowFactor(pp *physical.Plan, id plan.OpID, inRate float64) float64 {
	cost := pp.Graph.Operator(id).CostPerEvent
	if cost <= 0 {
		cost = 1
	}
	return min(max(0.5*inRate*cost/experiment.ExperimentSlotRate, 0.001), 0.9)
}

const (
	ctrlChaosDuration   = 900 * time.Second
	ctrlChaosCheckpoint = 30 * time.Second
)

// ctrlChaosCell throws a generated data+control fault schedule at the full
// policy over the simulated control plane, with checkpointing.
func ctrlChaosCell(seed int64, i int) (experiment.Scenario, error) {
	return testbedCell(seed, "ctrl_chaos", i, func(cs int64, top *topology.Topology) experiment.Scenario {
		sc := baseScenario(fmt.Sprintf("ctrlchaos-%d", i), cs, top, ctrlChaosDuration, queries.TopKTopics)
		sc.CheckpointEvery = ctrlChaosCheckpoint
		sc.Ctrl = &ctrlplane.Config{}
		sc.Faults = chaos.Generate(cs, chaos.Config{
			Sites:       top.N(),
			Duration:    ctrlChaosDuration,
			CtrlRegions: len(ctrlplane.Domains(top, ctrlplane.Config{})),
		})
		return sc
	})
}
