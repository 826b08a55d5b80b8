package physical

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/wasp-stream/wasp/internal/placement"
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
	// index is the variant's position in its session: it breaks ties in
	// Cost.
	index int
}

// PlanQuery jointly optimizes the combine order and task placement for a
// query whose base graph and re-orderable combine group are given. It
// returns the best candidate and the candidates the round completed,
// ranked (Session.Plan).
func PlanQuery(base *plan.Graph, spec *plan.CombineSpec, top *topology.Topology, cfg PlannerConfig) (*Candidate, []Candidate, error) {
	s, err := NewSession(base, spec, cfg.MaxVariants)
	if err != nil {
		return nil, nil, err
	}
	return s.Plan(top, cfg, nil)
}

// RankQuery is PlanQuery returning every schedulable variant, ranked
// (Session.Rank).
func RankQuery(base *plan.Graph, spec *plan.CombineSpec, top *topology.Topology, cfg PlannerConfig) (*Candidate, []Candidate, error) {
	s, err := NewSession(base, spec, cfg.MaxVariants)
	if err != nil {
		return nil, nil, err
	}
	return s.Rank(top, cfg, nil)
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
// A round evaluates last round's winner first, and Plan stops scheduling
// a variant once the in-edges of its placed stages cost more than the
// best candidate so far (see bound).
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
	// hint is the index of the last round's winner, the variant a round
	// evaluates first.
	hint  int
	cands []Candidate // reused result buffer, re-sliced per round
	ws    Workspace   // scratch shared by every round's scheduling
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
// current topology/bandwidth, estimate its cost, and rank. It returns the
// best candidate and the candidates this round completed, ranked by
// (Cost, variant index): a variant that cannot beat the best one is
// stopped part-way and not listed, so only the best is the same as
// Rank's. The returned candidates (and their Plans) are owned by the
// session and valid until the next round; Clone any plan that outlives
// the round. A variant that no placement fits is passed over without
// building an error.
func (s *Session) Plan(top *topology.Topology, cfg PlannerConfig, admit func(*plan.Variant) bool) (*Candidate, []Candidate, error) {
	return s.round(top, cfg, admit, true)
}

// Rank is Plan without stopping any variant: it returns every schedulable
// admissible variant, ranked by (Cost, variant index).
func (s *Session) Rank(top *topology.Topology, cfg PlannerConfig, admit func(*plan.Variant) bool) (*Candidate, []Candidate, error) {
	return s.round(top, cfg, admit, false)
}

// boundMargin is how far past the best cost a variant's partial cost may
// run before a pruning round stops it: it covers the rounding of summing
// the same non-negative terms in another order, so that a variant that
// ties the best is never stopped.
const boundMargin = 1e-9

// round is Plan when prune is set and Rank when it is not.
func (s *Session) round(top *topology.Topology, cfg PlannerConfig, admit func(*plan.Variant) bool, prune bool) (*Candidate, []Candidate, error) {
	if cfg.Workspace == nil {
		cfg.Workspace = &s.ws
	}
	sc := cfg.ScheduleConfig.withDefaults(top)
	ws := sc.Workspace
	candidates := s.cands[:0]
	var first *Plan // the admissible variant the prefix was placed on
	// pre holds the prefix's in-edges, and cut one variant's running cost
	// from there.
	pre, cut := bound{limit: math.Inf(1)}, bound{}
	best := math.Inf(1)
	// Last round's winner first, then every other variant in index order.
	for k := -1; k < len(s.entries); k++ {
		i := k
		if k < 0 {
			i = s.hint
		} else if k == s.hint {
			continue
		}
		e := s.entries[i]
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
			placed, err := placeStages(e.plan, order[:s.prefix], top, sc, &pre)
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
		if cut = pre; prune {
			cut.limit = best * (1 + boundMargin)
		}
		suffix := order[s.prefix:]
		placed, err := placeStages(e.plan, suffix, top, sc, &cut)
		if err != nil {
			return nil, nil, err
		}
		if placed < len(suffix) {
			continue // not schedulable under current bandwidth, or cannot win
		}
		delayVol, wan := estimateCost(e.plan, top, ws.rates.Bytes, ws)
		c := Candidate{
			Variant:        e.variant,
			Plan:           e.plan,
			DelayVolume:    delayVol,
			WANBytesPerSec: wan,
			Cost:           delayVol + wanWeight*wan,
			index:          i,
		}
		best = min(best, c.Cost)
		candidates = append(candidates, c)
	}
	s.cands = candidates
	if len(candidates) == 0 {
		return nil, nil, ErrNoCandidate
	}
	slices.SortFunc(candidates, func(a, b Candidate) int {
		return cmp.Or(cmp.Compare(a.Cost, b.Cost), cmp.Compare(a.index, b.index))
	})
	s.hint = candidates[0].index
	winner := candidates[0]
	return &winner, candidates, nil
}

// bound is the running cost of the stages a round has placed of one
// variant. The planner's cost is a sum of non-negative per-edge terms, so
// once the in-edges of the placed stages alone cost more than limit, the
// whole variant does too.
type bound struct {
	delayVolume, wanBytesPerSec float64
	limit                       float64
}

// exceeded adds the in-edges of p's stage id, whose upstream stages are
// all placed, to the running cost, priced term by term as estimateCost
// prices them, and reports whether the cost now exceeds the limit.
func (b *bound) exceeded(p *Plan, id plan.OpID, top *topology.Topology, ws *Workspace) bool {
	ws.toEPs, ws.tmp = p.Stages[id].AppendEndpoints(ws.toEPs[:0], ws.tmp)
	for _, u := range p.Graph.UpstreamView(id) {
		ws.fromEPs, ws.tmp = p.Stages[u].AppendEndpoints(ws.fromEPs[:0], ws.tmp)
		b.delayVolume, b.wanBytesPerSec = addEdgeCost(b.delayVolume, b.wanBytesPerSec, ws.fromEPs, ws.toEPs, ws.rates.Bytes[u], top)
	}
	return b.delayVolume+wanWeight*b.wanBytesPerSec > b.limit
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
	for from := range p.Graph.Len() {
		ws.fromEPs, ws.tmp = p.Stages[from].AppendEndpoints(ws.fromEPs[:0], ws.tmp)
		for _, to := range p.Graph.DownstreamView(plan.OpID(from)) {
			ws.toEPs, ws.tmp = p.Stages[to].AppendEndpoints(ws.toEPs[:0], ws.tmp)
			delayVolume, wanBytesPerSec = addEdgeCost(delayVolume, wanBytesPerSec, ws.fromEPs, ws.toEPs, outBytes[from], top)
		}
	}
	return delayVolume, wanBytesPerSec
}

// addEdgeCost adds to the running totals the cross-site flows of one
// edge, whose producer emits rate bytes/s from endpoints fromEPs to a
// consumer at endpoints toEPs: each flow's bytes/s to wanBytesPerSec and
// its bytes/s × link latency to delayVolume.
func addEdgeCost(delayVolume, wanBytesPerSec float64, fromEPs, toEPs []placement.Endpoint, rate float64, top *topology.Topology) (float64, float64) {
	for _, fe := range fromEPs {
		for _, te := range toEPs {
			flow := rate * fe.Weight * te.Weight
			if fe.Site == te.Site || flow == 0 {
				continue
			}
			wanBytesPerSec += flow
			delayVolume += flow * top.Latency(fe.Site, te.Site).Seconds()
		}
	}
	return delayVolume, wanBytesPerSec
}
