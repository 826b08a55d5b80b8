package experiment

import (
	"math"
	"sort"
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// migBench is the controlled single-stage testbed of §8.7: one source at
// an edge site feeding a stateful aggregation co-located with it, sinking
// at a data center. The experiments force a migration of the stateful
// stage at a fixed time and measure the transition (suspension) and
// stabilization overheads under different migration strategies.
type migBench struct {
	top   *topology.Topology
	net   *netsim.Network
	sched *vclock.Scheduler
	eng   *engine.Engine

	stageOp  plan.OpID
	srcSite  topology.SiteID
	sinkSite topology.SiteID

	samples []WeightedDelay
}

// newMigBench builds the testbed with the given operator state size.
func newMigBench(seed int64, stateBytes float64) (*migBench, error) {
	top := topology.Generate(topology.DefaultGenConfig(seed))
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)

	srcSite := top.SitesOfKind(topology.Edge)[0]
	sinkSite := top.SitesOfKind(topology.DataCenter)[0]

	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: srcSite,
		Selectivity: 1, OutEventBytes: 50, SourceRate: 5000,
	})
	stage := g.AddOperator(plan.Operator{
		Name: "agg", Kind: plan.KindAggregate, Stateful: true, Splittable: true,
		Selectivity: 0.05, OutEventBytes: 50, CostPerEvent: 1,
		StateBytes: stateBytes, Window: 10 * time.Second,
	})
	sink := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: sinkSite})
	g.MustConnect(src, stage)
	g.MustConnect(stage, sink)

	pp, err := physical.FromLogical(g)
	if err != nil {
		return nil, err
	}
	pp.Stages[src].Sites = []topology.SiteID{srcSite}
	pp.Stages[stage].Sites = []topology.SiteID{srcSite} // state accumulates at the edge
	pp.Stages[sink].Sites = []topology.SiteID{sinkSite}

	eng := engine.New(engine.Config{SlotRate: ExperimentSlotRate}, top, net, sched)
	if err := eng.Deploy(pp); err != nil {
		return nil, err
	}
	eng.Start()
	return &migBench{
		top: top, net: net, sched: sched, eng: eng,
		stageOp: stage,
		srcSite: srcSite, sinkSite: sinkSite,
	}, nil
}

// runUntil advances the bench, harvesting delay samples.
func (b *migBench) runUntil(t time.Duration) error {
	if err := b.sched.RunUntil(vclock.Time(t)); err != nil {
		return err
	}
	for _, d := range b.eng.TakeDeliveries() {
		b.samples = append(b.samples, WeightedDelay{At: d.At, Delay: d.Delay.Seconds(), Weight: d.Count})
	}
	return nil
}

// candidateDests lists sites (other than the stage's current one) that can
// host the stage: a free slot, enough inbound bandwidth for the stream,
// and enough outbound bandwidth toward the sink — so the execution
// eventually stabilizes regardless of strategy (§8.7.1). Results are
// sorted by descending migration bandwidth from the current site.
func (b *migBench) candidateDests(now vclock.Time) []topology.SiteID {
	const streamBytes = 5000 * 50 // events/s × bytes
	free := b.eng.FreeSlots()
	cur := b.eng.Plan().Stages[b.stageOp].Sites[0]
	var out []topology.SiteID
	for s := 0; s < b.top.N(); s++ {
		site := topology.SiteID(s)
		if site == cur || free[site] < 1 {
			continue
		}
		if b.net.Capacity(b.srcSite, site, now) < streamBytes*1.25 {
			continue
		}
		if b.net.Capacity(site, b.sinkSite, now) < streamBytes*0.05*1.25 {
			continue
		}
		out = append(out, site)
	}
	sort.Slice(out, func(i, j int) bool {
		return b.net.Capacity(cur, out[i], now) > b.net.Capacity(cur, out[j], now)
	})
	return out
}

// moveStage reconfigures the stage onto dests, transferring
// bytesPerTransfer from the current site to every destination, and
// returns a pointer that will hold the completion time.
func (b *migBench) moveStage(dests []topology.SiteID, bytesPerTransfer float64) (*vclock.Time, error) {
	cur := b.eng.Plan().Stages[b.stageOp].Sites[0]
	var migs []engine.Migration
	for _, d := range dests {
		if bytesPerTransfer > 0 {
			migs = append(migs, engine.Migration{FromSite: cur, ToSite: d, Bytes: bytesPerTransfer})
		}
	}
	doneAt := new(vclock.Time)
	err := b.eng.Reconfigure(b.stageOp, dests, migs, func(now vclock.Time) { *doneAt = now })
	if err != nil {
		return nil, err
	}
	return doneAt, nil
}

// Overhead is the §8.7 overhead breakdown of one migration.
type Overhead struct {
	// Transition is the suspension time: migration start to the slowest
	// transfer completing.
	Transition time.Duration
	// Stabilize is the time after the transition until sink delay
	// returned below the stabilization threshold.
	Stabilize time.Duration
}

// Total returns transition + stabilization.
func (o Overhead) Total() time.Duration { return o.Transition + o.Stabilize }

// measureOverhead computes the breakdown given the adaptation start, the
// transfer completion, and the delay samples: stabilization ends at the
// first delivery after the transition whose delay is back under
// `threshold` seconds.
func measureOverhead(samples []WeightedDelay, startAt, doneAt vclock.Time, threshold float64) Overhead {
	o := Overhead{Transition: time.Duration(doneAt - startAt)}
	stabilizedAt := vclock.Time(math.MaxInt64)
	for _, s := range samples {
		if s.At > doneAt && s.Delay <= threshold {
			stabilizedAt = s.At
			break
		}
	}
	if stabilizedAt == vclock.Time(math.MaxInt64) {
		if len(samples) > 0 {
			stabilizedAt = samples[len(samples)-1].At
		} else {
			stabilizedAt = doneAt
		}
	}
	if stabilizedAt > doneAt {
		o.Stabilize = time.Duration(stabilizedAt - doneAt)
	}
	return o
}
