package physical

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// ErrNoCandidate is returned when no plan variant can be scheduled under
// the current constraints.
var ErrNoCandidate = errors.New("physical: no schedulable plan variant")

// PlannerConfig parameterises the joint logical/physical planner.
type PlannerConfig struct {
	ScheduleConfig
	// MaxVariants caps how many combine orders are evaluated (the paper
	// restricts enumeration to aggregation/join orders to stay
	// tractable, §8.1). Zero means DefaultMaxVariants.
	MaxVariants int
}

// DefaultMaxVariants bounds the combine-order enumeration: 105 covers all
// orders for up to 5 inputs; beyond that the planner evaluates only the
// first 105 trees of plan.EnumerateTrees' canonical order.
const DefaultMaxVariants = 105

// wanWeight converts WAN consumption (bytes/s) into cost units when
// ranking candidates, trading delay against bandwidth use: one byte/s of
// WAN traffic is priced at 10 ns of delay cost, making WAN consumption the
// decisive tie-break between plans with comparable latency (the Fig 5
// behaviour).
const wanWeight = 10e-9

// Candidate is one evaluated (logical variant, placement) pair.
type Candidate struct {
	Variant *plan.Variant
	Plan    *Plan
	// DelayVolume is Σ over cross-site flows of bytes/s × latency — the
	// estimated aggregate in-flight delay (seconds·bytes/s).
	DelayVolume float64
	// WANBytesPerSec is the total cross-site traffic.
	WANBytesPerSec float64
	// Cost is the combined objective the planner minimizes.
	Cost float64
}

// PlanQuery jointly optimizes the combine order and task placement for a
// query whose base graph and re-orderable combine group are given. It
// returns the best candidate and all evaluated (feasible) candidates
// sorted by cost.
func PlanQuery(base *plan.Graph, spec *plan.CombineSpec, top *topology.Topology, cfg PlannerConfig) (*Candidate, []Candidate, error) {
	s, err := NewSession(base, spec, cfg.MaxVariants)
	if err != nil {
		return nil, nil, err
	}
	return s.Plan(top, cfg, nil)
}

// Session caches everything about one query's plan search space that does
// not change between planning rounds: the enumerated combine trees, each
// tree's expanded logical variant, and each variant's physical plan
// skeleton (built and validated once). Per round only the placements and
// cost estimates are recomputed — the controller re-plans against live
// bandwidth and workload dozens of times per run, and re-expanding ~10^2
// variant graphs each round dominated its allocation profile.
//
// Every variant is the base graph plus combine nodes whose ids follow
// every base id, and the topological order takes the smallest ready id, so
// the stages no combine node feeds lead every variant's order, in the same
// order, and solve the same placement programs. A round places that shared
// prefix once and schedules only each variant's combine suffix.
//
// The cached plans are REUSED across Plan calls: each round overwrites
// their stage placements in place. A caller that adopts a candidate's Plan
// beyond the current round (e.g. deploying it to the engine) must Clone it
// first, or the next round will mutate the adopted plan under the engine's
// feet.
type Session struct {
	entries []sessionEntry
	// prefix is how many leading stages every variant's topological order
	// shares, none of them a combine node.
	prefix int
	// prefixAvail is the free slots left once a round has placed the
	// prefix: each variant's suffix starts from a copy.
	prefixAvail []int
	cands       []Candidate // reused result buffer, re-sliced per Plan call
	ws          Workspace   // scratch shared by every Plan call's scheduling
}

// sessionEntry is one cached (variant, plan skeleton) pair.
type sessionEntry struct {
	variant *plan.Variant
	plan    *Plan
}

// NewSession expands the query's combine-order search space once.
// maxVariants of 0 means DefaultMaxVariants.
//
// The variants are built as one batch (plan.CombineSpec.ExpandAll) and
// staged as one (stagePlans): a session is the same few dozen
// allocations whether it holds 12 variants or 105, and its variants share
// one copy of the base operators.
func NewSession(base *plan.Graph, spec *plan.CombineSpec, maxVariants int) (*Session, error) {
	if maxVariants == 0 {
		maxVariants = DefaultMaxVariants
	}
	trees := plan.EnumerateTrees(len(spec.Inputs), maxVariants)
	variants, err := spec.ExpandAll(base, trees)
	if err != nil {
		return nil, err
	}
	graphs := make([]*plan.Graph, len(variants))
	for i := range variants {
		graphs[i] = variants[i].Graph
	}
	plans, bad, err := stagePlans(graphs)
	if err != nil {
		return nil, fmt.Errorf("variant %v: %w", trees[bad], err)
	}
	s := &Session{entries: make([]sessionEntry, len(variants))}
	var first []plan.OpID
	for i := range variants {
		v, p := &variants[i], &plans[i]
		order, _ := p.StageIDs() // cached by ExpandAll, and Validate passed it
		if first == nil {
			first, s.prefix = order, len(order)
		}
		n := 0
		for n < s.prefix && order[n] == first[n] {
			if v.CombineNodes[order[n]] != 0 {
				break
			}
			n++
		}
		s.prefix = n
		s.entries[i] = sessionEntry{variant: v, plan: p}
	}
	return s, nil
}

// Plan runs one planning round over the cached variants: place the shared
// prefix once, then schedule each admissible variant's suffix against the
// current topology/bandwidth, estimate its cost, and rank. The returned
// candidates (and their Plans) are owned by the session and valid until
// the next Plan call; Clone any plan that outlives the round. A variant
// that no placement fits is passed over without building an error.
func (s *Session) Plan(top *topology.Topology, cfg PlannerConfig, admit func(*plan.Variant) bool) (*Candidate, []Candidate, error) {
	if cfg.Workspace == nil {
		cfg.Workspace = &s.ws
	}
	sc := cfg.ScheduleConfig.withDefaults(top)
	ws := sc.Workspace
	candidates := s.cands[:0]
	var first *Plan // the admissible variant the prefix was placed on
	for _, e := range s.entries {
		if admit != nil && !admit(e.variant) {
			continue
		}
		order, err := e.plan.StageIDs()
		if err != nil {
			return nil, nil, err
		}
		if first == nil {
			if err := beginSchedule(e.plan, order, top, sc); err != nil {
				return nil, nil, err
			}
			placed, err := placeStages(e.plan, order[:s.prefix], top, sc)
			if err != nil {
				return nil, nil, err
			}
			if placed < s.prefix {
				break // every variant shares the prefix: none is schedulable
			}
			first = e.plan
			s.prefixAvail = append(s.prefixAvail[:0], ws.avail...)
		} else {
			if err := e.plan.Graph.ExpectedRatesBuf(sc.RateFactor, &ws.rates); err != nil {
				return nil, nil, err
			}
			for _, id := range order[:s.prefix] {
				st := e.plan.Stages[id]
				st.Sites = append(st.Sites[:0], first.Stages[id].Sites...)
			}
			ws.avail = append(ws.avail[:0], s.prefixAvail...)
		}
		suffix := order[s.prefix:]
		placed, err := placeStages(e.plan, suffix, top, sc)
		if err != nil {
			return nil, nil, err
		}
		if placed < len(suffix) {
			continue // variant not schedulable under current bandwidth
		}
		delayVol, wan := estimateCost(e.plan, top, ws.rates.Bytes, ws)
		candidates = append(candidates, Candidate{
			Variant:        e.variant,
			Plan:           e.plan,
			DelayVolume:    delayVol,
			WANBytesPerSec: wan,
			Cost:           delayVol + wanWeight*wan,
		})
	}
	s.cands = candidates
	if len(candidates) == 0 {
		return nil, nil, ErrNoCandidate
	}
	slices.SortStableFunc(candidates, func(a, b Candidate) int { return cmp.Compare(a.Cost, b.Cost) })
	best := candidates[0]
	return &best, candidates, nil
}

// EstimateCost computes the plan's estimated delay-volume (Σ cross-site
// flow × link latency, in seconds·bytes/s) and total WAN consumption
// (bytes/s) under even event partitioning.
func EstimateCost(p *Plan, top *topology.Topology, rateFactor float64) (delayVolume, wanBytesPerSec float64, err error) {
	if rateFactor == 0 {
		rateFactor = 1
	}
	ws := &Workspace{}
	if err := p.Graph.ExpectedRatesBuf(rateFactor, &ws.rates); err != nil {
		return 0, 0, err
	}
	delayVolume, wanBytesPerSec = estimateCost(p, top, ws.rates.Bytes, ws)
	return delayVolume, wanBytesPerSec, nil
}

// estimateCost is EstimateCost given the plan's expected per-operator
// output rates (bytes/s), with caller-owned scratch.
func estimateCost(p *Plan, top *topology.Topology, outBytes []float64, ws *Workspace) (delayVolume, wanBytesPerSec float64) {
	for _, from := range p.Graph.OperatorIDs() {
		ws.fromEPs, ws.tmp = p.Stages[from].AppendEndpoints(ws.fromEPs[:0], ws.tmp)
		fromEPs := ws.fromEPs
		for _, to := range p.Graph.DownstreamView(from) {
			ws.toEPs, ws.tmp = p.Stages[to].AppendEndpoints(ws.toEPs[:0], ws.tmp)
			for _, fe := range fromEPs {
				for _, te := range ws.toEPs {
					flow := outBytes[from] * fe.Weight * te.Weight
					if fe.Site == te.Site || flow == 0 {
						continue
					}
					wanBytesPerSec += flow
					delayVolume += flow * top.Latency(fe.Site, te.Site).Seconds()
				}
			}
		}
	}
	return delayVolume, wanBytesPerSec
}
