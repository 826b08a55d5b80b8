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

// Candidate is one evaluated combine order: its tree and its costs. A
// round's best candidate, which is also the first it lists, carries its
// variant and placed plan too; every other candidate's are nil.
type Candidate struct {
	Tree    *plan.Tree
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

// Session holds one query's plan search space between planning rounds:
// the enumerated combine trees, and the variant and plan of each tree that
// a round has chosen. A round schedules each variant straight from its
// tree, through a view of the base graph with the tree's combine edges
// written in (variantView), into a sites table the session owns, and
// keeps only its costs and, for the best so far, its suffix's sites. A
// variant's plan.Variant and Plan are built only the first time a round
// chooses it, and then kept: outside the session only the winner's are
// read, and a warm round's winner is most often last round's.
//
// Every variant is the base graph plus combine nodes whose ids follow
// every base id, and the topological order takes the smallest ready id, so
// every variant's order is the same: the stages no combine node feeds,
// then the combine nodes in id order (the tree's post-order), then the
// query's Output and its descendants. A round places that shared prefix
// once, on rates computed once over the base graph, and schedules only
// each variant's suffix, each suffix stage's rate summed from its
// upstream stages' (plan.Operator.ExpectedRates). Variants whose combine
// stages begin with the same inputs share those stages too: a round
// places each such run once (see step).
//
// A round evaluates last round's winner first, and Plan stops scheduling
// a variant once the in-edges of its placed stages cost more than the
// best candidate so far (see bound).
//
// The best candidate's Variant and Plan are the session's, the same
// pointers in every round that chooses the variant, and each such round
// overwrites the plan's stage placements in place. A caller that adopts
// the Plan beyond the current round (e.g. deploying it to the engine)
// must Clone it first, or a later round will mutate the adopted plan
// under the engine's feet.
type Session struct {
	// built holds each tree's variant and plan once a round has chosen it,
	// and nils before.
	built []variantPlan
	// The first prefix stages of every variant's topological order
	// (view.order) are the ones no combine node feeds.
	prefix int
	view   variantView // reads the base graph, the spec and the trees
	// sites holds the task sites of every stage of the variant being
	// scheduled, and rates every operator's λ̂, both indexed by OpID.
	sites [][]topology.SiteID
	rates plan.RateBuf
	// prefixAvail is the free slots left once a round has placed the
	// prefix: each variant's suffix starts from a copy.
	prefixAvail []int
	// steps holds the combine stages the round has placed, and stepSites
	// their sites (see step).
	steps     []step
	stepSites []topology.SiteID
	firstRoot int32 // the first step with no parent, -1 before any
	// done holds the suffix sites of the best variant the round has
	// completed so far.
	done []topology.SiteID
	// hint is the index of the last round's winner, the variant a round
	// evaluates first.
	hint  int
	cands []Candidate // reused result buffer, re-sliced per round
	ws    Workspace   // scratch shared by every round's scheduling
}

// variantPlan is one built variant and its plan skeleton.
type variantPlan struct {
	variant *plan.Variant
	plan    *Plan
}

// NewSession enumerates the query's combine orders once. maxVariants of
// 0 means DefaultMaxVariants.
//
// It checks every tree and returns the error that expanding and staging
// every variant would meet first, but expands and stages none: it
// validates the first variant through the session's view of it, as
// FromLogical would validate the built variant, and that validates them
// all, as a variant's structure differs from another's only in how its
// combine nodes are wired among themselves, and its topological order is
// every variant's.
//
// The session reads base and spec in every round, to schedule variants and
// to build them: neither may change while the session is in use.
func NewSession(base *plan.Graph, spec *plan.CombineSpec, maxVariants int) (*Session, error) {
	if maxVariants == 0 {
		maxVariants = DefaultMaxVariants
	}
	trees := plan.EnumerateTrees(len(spec.Inputs), maxVariants)
	if err := spec.Check(base, trees); err != nil {
		return nil, err
	}
	s := &Session{view: newVariantView(base, spec, trees)}
	if err := s.view.validate(); err != nil {
		return nil, fmt.Errorf("variant %v: %w", trees[0], err)
	}
	order := s.view.order
	n := len(order)
	s.built = make([]variantPlan, len(trees))
	// The first stage a combine node feeds is a combine node.
	s.prefix = slices.IndexFunc(order, func(id plan.OpID) bool { return id >= s.view.first })
	s.sites = make([][]topology.SiteID, n)
	s.cands = make([]Candidate, 0, len(trees))
	// One block holds each stage's room for the one task it runs by
	// default, then room for one variant's suffix sites and for the sites
	// of every combine stage of every variant, the most a round places.
	nodes := len(spec.Inputs) - 1
	done := 2*n - s.prefix
	block := make([]topology.SiteID, done+nodes*len(trees))
	for id := range s.sites {
		s.sites[id] = block[id : id : id+1]
	}
	s.done, s.stepSites = block[n:n:done], block[done:done]
	// ExpectedRatesBuf over the base keeps buffers with room, so the
	// combine nodes' rates follow the base operators'.
	rates := make([]float64, 3*n)
	s.rates = plan.RateBuf{In: rates[:n:n], Out: rates[n : 2*n : 2*n], Bytes: rates[2*n:]}
	return s, nil
}

// Plan runs one planning round: place the shared prefix once, then
// schedule each admissible variant's suffix against the current
// topology/bandwidth, estimate its cost, and rank. It returns the best
// candidate and the candidates this round completed, ranked by (Cost,
// variant index): a variant that cannot beat the best one is stopped
// part-way and not listed, so only the best is the same as Rank's. Only
// the best, which is also the first listed, carries its Variant and Plan.
// The returned candidates are owned by the session and valid until the
// next round, and the best's Plan holds this round's placement until a
// round chooses it again; Clone a plan that outlives the round. A variant
// that no placement fits is passed over without building an error. admit,
// when not nil, says which trees' variants may be considered.
func (s *Session) Plan(top *topology.Topology, cfg PlannerConfig, admit func(*plan.Tree) bool) (*Candidate, []Candidate, error) {
	return s.round(top, cfg, admit, true)
}

// Rank is Plan without stopping any variant: it returns every schedulable
// admissible variant, ranked by (Cost, variant index).
func (s *Session) Rank(top *topology.Topology, cfg PlannerConfig, admit func(*plan.Tree) bool) (*Candidate, []Candidate, error) {
	return s.round(top, cfg, admit, false)
}

// boundMargin is how far past the best cost a variant's partial cost may
// run before a pruning round stops it: it covers the rounding of summing
// the same non-negative terms in another order, so that a variant that
// ties the best is never stopped.
const boundMargin = 1e-9

// round is Plan when prune is set and Rank when it is not.
func (s *Session) round(top *topology.Topology, cfg PlannerConfig, admit func(*plan.Tree) bool, prune bool) (*Candidate, []Candidate, error) {
	if cfg.Workspace == nil {
		cfg.Workspace = &s.ws
	}
	sc := cfg.ScheduleConfig.withDefaults(top)
	ws := sc.Workspace
	v, suffix := &s.view, s.view.order[s.prefix:]
	tail := suffix[len(v.downs):] // Output and its descendants
	candidates := s.cands[:0]
	s.steps, s.stepSites, s.firstRoot = s.steps[:0], s.stepSites[:0], -1
	placedPrefix := false
	// pre holds the prefix's in-edges, and cut one variant's running cost
	// from there.
	pre, cut := bound{limit: math.Inf(1)}, bound{}
	best := Candidate{Cost: math.Inf(1), index: math.MaxInt} // any candidate ranks first
	// Last round's winner first, then every other variant in index order.
	for k := -1; k < len(s.view.trees); k++ {
		i := k
		if k < 0 {
			i = s.hint
		} else if k == s.hint {
			continue
		}
		if admit != nil && !admit(s.view.trees[i]) {
			continue
		}
		if !placedPrefix {
			ok, err := s.placePrefix(top, sc, &pre)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				break // every variant shares the prefix: none is schedulable
			}
			placedPrefix = true
		}
		if cut = pre; prune {
			cut.limit = best.Cost * (1 + boundMargin)
		}
		at, n, ok := s.resume(i, &cut, ws.avail)
		if !ok {
			continue // a stage it shares found no placement, or cannot win
		}
		v.setTree(i)
		s.suffixRates(sc.RateFactor)
		ok, err := s.placeCombine(at, n, top, sc, &cut)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			continue // not schedulable under current bandwidth, or cannot win
		}
		placed, err := placeStages(v, s.sites, tail, top, sc, s.rates.Bytes, &cut)
		if err != nil {
			return nil, nil, err
		}
		if placed < len(tail) {
			continue
		}
		delayVol, wan := estimateCost(v, s.sites, top, s.rates.Bytes, ws)
		c := Candidate{
			Tree:           v.trees[i],
			DelayVolume:    delayVol,
			WANBytesPerSec: wan,
			Cost:           delayVol + wanWeight*wan,
			index:          i,
		}
		candidates = append(candidates, c)
		if rank(c, best) < 0 {
			best = c
			s.done = s.done[:0]
			for _, id := range suffix {
				s.done = append(s.done, s.sites[id]...)
			}
		}
	}
	s.cands = candidates
	if len(candidates) == 0 {
		return nil, nil, ErrNoCandidate
	}
	b, err := s.build(best.index)
	if err != nil {
		return nil, nil, err
	}
	s.adopt(b.plan, sc)
	slices.SortFunc(candidates, rank)
	candidates[0].Variant, candidates[0].Plan = b.variant, b.plan
	s.hint = best.index
	winner := candidates[0]
	return &winner, candidates, nil
}

// rank orders candidates by Cost, then by variant index.
func rank(a, b Candidate) int {
	return cmp.Or(cmp.Compare(a.Cost, b.Cost), cmp.Compare(a.index, b.index))
}

// placePrefix computes every base operator's rates, reserves the pinned
// stages' slots, and places the stages every variant shares, adding their
// in-edges to pre. It reports whether every one of them found a
// placement, and keeps the free slots they leave.
func (s *Session) placePrefix(top *topology.Topology, sc ScheduleConfig, pre *bound) (bool, error) {
	if err := s.view.base.ExpectedRatesBuf(sc.RateFactor, &s.rates); err != nil {
		return false, err
	}
	n := len(s.view.order)
	s.rates.Out, s.rates.Bytes = s.rates.Out[:n], s.rates.Bytes[:n]
	if err := reserveSlots(&s.view, s.view.order, top, sc); err != nil {
		return false, err
	}
	placed, err := placeStages(&s.view, s.sites, s.view.order[:s.prefix], top, sc, s.rates.Bytes, pre)
	if err != nil || placed < s.prefix {
		return false, err
	}
	s.prefixAvail = append(s.prefixAvail[:0], sc.Workspace.avail...)
	return true, nil
}

// step is one combine stage a round has placed, after the steps its
// parent chain names. A combine stage's placement program is fixed by its
// two inputs and by the stages placed before it, so every variant whose
// combine stages begin with the same inputs in the same order solves the
// same programs and reaches the same free slots and running cost: a round
// places each such run of stages once, and a variant resumes from the
// deepest step it shares.
type step struct {
	l, r plan.OpID // the stage's two inputs
	// parent is the step placed before this one, and child and sibling
	// link the steps placed after it; -1 means none.
	parent, child, sibling int32
	// The stage placed its tasks at stepSites[from:to], and from is -1
	// when no placement fit it.
	from, to int32
	// delayVolume and wanBytesPerSec are the running cost once the
	// stage's in-edges are added.
	delayVolume, wanBytesPerSec float64
}

// resume restores the deepest state the round has already reached of
// tree i's combine stages: the sites of the steps it shares, the free
// slots they leave and the running cost after them, into cut. It returns
// the last shared step (-1 for none) and how many stages it shares, and
// false when the variant cannot complete: a shared step found no
// placement, or the running cost already exceeds cut's limit.
func (s *Session) resume(i int, cut *bound, avail []int) (at int32, n int, ok bool) {
	wiring := s.view.wiringOf(i)
	at = -1
	for ; n < len(wiring)/2; n++ {
		l, r := wiring[2*n], wiring[2*n+1]
		c := s.firstStep(at)
		for c >= 0 && (s.steps[c].l != l || s.steps[c].r != r) {
			c = s.steps[c].sibling
		}
		if c < 0 {
			break
		}
		at = c
	}
	copy(avail, s.prefixAvail)
	if at < 0 {
		return at, n, true
	}
	if s.steps[at].from < 0 {
		return at, n, false
	}
	cut.delayVolume, cut.wanBytesPerSec = s.steps[at].delayVolume, s.steps[at].wanBytesPerSec
	for k, id := at, s.view.first+plan.OpID(n-1); k >= 0; k, id = s.steps[k].parent, id-1 {
		st := &s.steps[k]
		sites := s.stepSites[st.from:st.to]
		s.sites[id] = append(s.sites[id][:0], sites...)
		for _, site := range sites {
			avail[site]--
		}
	}
	return at, n, cut.delayVolume+wanWeight*cut.wanBytesPerSec <= cut.limit
}

// placeCombine places the current variant's combine stages from the n-th
// on, after step at (see resume), into the sites table, one step each,
// and adds their in-edges to cut. It reports whether they all found a
// placement within cut's limit.
func (s *Session) placeCombine(at int32, n int, top *topology.Topology, sc ScheduleConfig, cut *bound) (bool, error) {
	combine := s.view.order[s.prefix : s.prefix+len(s.view.downs)]
	for ; n < len(combine); n++ {
		id := combine[n]
		placed, err := placeStages(&s.view, s.sites, combine[n:n+1], top, sc, s.rates.Bytes, nil)
		if err != nil {
			return false, err
		}
		stop := placed == 0 || // no placement fits the stage
			cut.exceeded(&s.view, s.sites, id, top, s.rates.Bytes, sc.Workspace)
		at = s.keep(at, id, placed == 1, cut)
		if stop {
			return false, nil
		}
	}
	return true, nil
}

// keep records combine stage id, placed or not, as the step after step
// at, with the running cost cut has reached, and returns its index.
func (s *Session) keep(at int32, id plan.OpID, placed bool, cut *bound) int32 {
	if s.steps == nil {
		s.steps = make([]step, 0, len(s.view.downs)*len(s.view.trees))
	}
	up := s.view.UpstreamView(id)
	st := step{l: up[0], r: up[1], parent: at, child: -1, sibling: s.firstStep(at), from: -1}
	if placed {
		st.from = int32(len(s.stepSites))
		s.stepSites = append(s.stepSites, s.sites[id]...)
		st.to = int32(len(s.stepSites))
		st.delayVolume, st.wanBytesPerSec = cut.delayVolume, cut.wanBytesPerSec
	}
	s.steps = append(s.steps, st)
	at = int32(len(s.steps) - 1)
	if st.parent >= 0 {
		s.steps[st.parent].child = at
	} else {
		s.firstRoot = at
	}
	return at
}

// firstStep returns the first of the steps placed after step at (at -1:
// the steps with no parent), or -1 when there are none.
func (s *Session) firstStep(at int32) int32 {
	if at < 0 {
		return s.firstRoot
	}
	return s.steps[at].child
}

// suffixRates computes the rates of the current variant's suffix stages,
// in order, each from its upstream stages' output rates summed in
// upstream order, as ExpectedRatesBuf would over the variant's graph.
func (s *Session) suffixRates(rateFactor float64) {
	for _, id := range s.view.order[s.prefix:] {
		var upOut float64
		for _, u := range s.view.UpstreamView(id) {
			upOut += s.rates.Out[u]
		}
		_, s.rates.Out[id], s.rates.Bytes[id] = s.view.Operator(id).ExpectedRates(upOut, rateFactor)
	}
}

// build returns tree i's variant and plan, expanding and staging them the
// first time a round chooses the tree, and keeps them.
func (s *Session) build(i int) (variantPlan, error) {
	if s.built[i].plan == nil {
		tree := s.view.trees[i]
		v, err := s.view.spec.Expand(s.view.base, tree)
		if err != nil {
			return variantPlan{}, err
		}
		p, err := FromLogical(v.Graph)
		if err != nil {
			return variantPlan{}, fmt.Errorf("variant %v: %w", tree, err)
		}
		s.built[i] = variantPlan{variant: v, plan: p}
	}
	return s.built[i], nil
}

// adopt writes the round's placement of its best variant into that
// variant's plan p: the shared prefix's sites, and its own suffix's from
// s.done, where each suffix stage holds one site per task.
func (s *Session) adopt(p *Plan, sc ScheduleConfig) {
	for _, id := range s.view.order[:s.prefix] {
		st := p.Stages[id]
		st.Sites = append(st.Sites[:0], s.sites[id]...)
	}
	done := s.done
	for _, id := range s.view.order[s.prefix:] {
		st := p.Stages[id]
		n := sc.parallelismFor(st.Op)
		st.Sites, done = append(st.Sites[:0], done[:n]...), done[n:]
	}
}

// variantView is one variant's graph as a Session schedules it, without
// building it: the base graph's operators and edge lists, with the edges
// Expand adds written in per tree — each combine node's two in-edges and
// one out-edge, the inputs' edges into combine nodes and the root's edge
// into Output, in the order Expand adds them. Every combine node reads as
// one operator, the spec's template with its pin as Expand sets it;
// stageName names a combine node as Expand would.
type variantView struct {
	base    *plan.Graph
	spec    *plan.CombineSpec
	first   plan.OpID // the first combine node's id, base.Len()
	combine plan.Operator
	// The lists below are the view's own. ups holds each combine node's
	// two inputs and downs its one consumer, from id first up; inDown is
	// each input's down list, in spec.Inputs order (an input listed twice
	// has its first listing's), and outUp Output's up list, each with room
	// for the edges every tree adds.
	ups, downs []plan.OpID
	inDown     [][]plan.OpID
	outUp      []plan.OpID
	// inSlot holds, for each base operator, its list's index in inDown,
	// or -1 for an operator that is no input.
	inSlot []int32
	// trees are the session's trees, and wiring holds, per tree, the two
	// inputs of each of its combine nodes in id order: 2(k−1) ids a tree.
	trees  []*plan.Tree
	wiring []plan.OpID
	tree   int // the tree setTree wrote last
	// order is every variant's topological order, once validate has
	// written it.
	order []plan.OpID
}

// newVariantView lays out the view of base's variants under spec, one per
// tree of trees, which spec.Check has accepted.
func newVariantView(base *plan.Graph, spec *plan.CombineSpec, trees []*plan.Tree) variantView {
	k := len(spec.Inputs)
	v := variantView{base: base, spec: spec, first: plan.OpID(base.Len()), combine: spec.Template, trees: trees}
	if kind := v.combine.Kind; kind != plan.KindSource && kind != plan.KindSink {
		v.combine.PinnedSite = plan.NoSite
	}
	v.inDown = make([][]plan.OpID, k)
	// Room: one more down edge per listing of an input, one more up edge
	// on Output, one consumer per combine node, each tree's wiring, and
	// the order.
	n := int(v.first) + k - 1
	size := len(base.UpstreamView(spec.Output)) + 1 + (k - 1) + 2*(k-1)*len(trees) + n
	for _, in := range spec.Inputs {
		size += len(base.DownstreamView(in)) + 1
	}
	pool := make([]plan.OpID, size)
	v.inSlot = make([]int32, v.first)
	for id := range v.inSlot {
		v.inSlot[id] = -1
	}
	for i, in := range spec.Inputs {
		if v.inSlot[in] < 0 { // an input listed twice has its first listing's list
			v.inSlot[in] = int32(i)
			v.inDown[i], pool = carve(pool, base.DownstreamView(in), uses(spec.Inputs, in))
		}
	}
	v.outUp, pool = carve(pool, base.UpstreamView(spec.Output), 1)
	v.downs, pool = pool[:k-1:k-1], pool[k-1:]
	v.order, pool = pool[:0:n], pool[n:]
	v.wiring = pool[:0]
	for _, t := range trees {
		v.wire(t, len(v.wiring))
	}
	return v
}

// wire appends t's combine nodes' inputs to the wiring in post-order, the
// order Expand gives the nodes their ids, and returns t's operator. at is
// where the wiring of t's whole tree starts.
func (v *variantView) wire(t *plan.Tree, at int) plan.OpID {
	if t.IsLeaf() {
		return v.spec.Inputs[t.Leaf]
	}
	l := v.wire(t.L, at)
	r := v.wire(t.R, at)
	v.wiring = append(v.wiring, l, r)
	return v.first + plan.OpID((len(v.wiring)-at)/2-1)
}

// uses counts the listings of id in ids.
func uses(ids []plan.OpID, id plan.OpID) int {
	n := 0
	for _, x := range ids {
		if x == id {
			n++
		}
	}
	return n
}

// carve copies ids into the front of pool and returns that copy, with
// room for spare more ids and no further, and the rest of the pool.
func carve(pool, ids []plan.OpID, spare int) (copied, rest []plan.OpID) {
	n := copy(pool, ids)
	return pool[: n : n+spare], pool[n+spare:]
}

// Operator returns the base operator id, or the combine template for a
// combine node.
func (v *variantView) Operator(id plan.OpID) *plan.Operator {
	if id >= v.first {
		return &v.combine
	}
	return v.base.Operator(id)
}

// UpstreamView returns id's upstream operators in the current variant.
func (v *variantView) UpstreamView(id plan.OpID) []plan.OpID {
	switch {
	case id >= v.first:
		c := int(id - v.first)
		return v.ups[2*c : 2*c+2 : 2*c+2]
	case id == v.spec.Output:
		return v.outUp
	}
	return v.base.UpstreamView(id)
}

// DownstreamView returns id's downstream operators in the current
// variant.
func (v *variantView) DownstreamView(id plan.OpID) []plan.OpID {
	if id >= v.first {
		c := int(id - v.first)
		return v.downs[c : c+1 : c+1]
	}
	if i := v.inSlot[id]; i >= 0 {
		return v.inDown[i]
	}
	return v.base.DownstreamView(id)
}

// Len is the number of operators of every variant: the base's, then the
// combine nodes.
func (v *variantView) Len() int { return int(v.first) + len(v.downs) }

// validate writes the first tree into the view and its variant's
// topological order into order, or returns the error FromLogical would
// return on that variant built: plan.Graph.Validate's, over the view.
func (v *variantView) validate() error {
	v.setTree(0)
	order, err := plan.TopoOrderOf(v, v.order)
	if err != nil {
		return err
	}
	v.order = order
	for id := range v.first {
		if err := plan.CheckOperator(v.base.Operator(id), len(v.UpstreamView(id)), len(v.DownstreamView(id))); err != nil {
			return err
		}
	}
	// Every combine node is the template with two inputs and one
	// consumer, so the first one's error is the first.
	if err := plan.CheckOperator(&v.combine, 2, 1); err != nil {
		named := v.combine
		named.Name = stageName(v, v.first)
		return plan.CheckOperator(&named, 2, 1)
	}
	return nil
}

// setTree writes tree i's combine edges into the view, as Expand adds
// them: each combine node's inputs are the tree's wiring.
func (v *variantView) setTree(i int) {
	for j, in := range v.spec.Inputs {
		if v.inSlot[in] == int32(j) {
			v.inDown[j] = v.inDown[j][:len(v.base.DownstreamView(in))]
		}
	}
	v.tree = i
	v.ups = v.wiringOf(i)
	for c := range v.downs {
		id := v.first + plan.OpID(c)
		for _, from := range v.ups[2*c : 2*c+2] {
			if from >= v.first {
				v.downs[from-v.first] = id
			} else {
				slot := v.inSlot[from]
				v.inDown[slot] = append(v.inDown[slot], id)
			}
		}
	}
	root := v.first + plan.OpID(len(v.downs)-1)
	v.downs[len(v.downs)-1] = v.spec.Output
	v.outUp = append(v.outUp[:len(v.base.UpstreamView(v.spec.Output))], root)
}

// wiringOf returns tree i's wiring: the two inputs of each combine node,
// in id order.
func (v *variantView) wiringOf(i int) []plan.OpID {
	n := 2 * len(v.downs)
	return v.wiring[n*i : n*(i+1) : n*(i+1)]
}

// setOf returns the LeafSet of the current tree's combine node id.
func (v *variantView) setOf(id plan.OpID) plan.LeafSet {
	next, set := v.first, plan.LeafSet(0)
	var walk func(t *plan.Tree)
	walk = func(t *plan.Tree) {
		if t.IsLeaf() {
			return
		}
		walk(t.L)
		walk(t.R)
		if next == id {
			set = t.Set
		}
		next++
	}
	walk(v.trees[v.tree])
	return set
}

// stageName is the name of v's operator id, a combine node's as Expand
// names it in the current variant.
func stageName(v graphView, id plan.OpID) string {
	if vv, ok := v.(*variantView); ok && id >= vv.first {
		return vv.spec.Template.Name + vv.setOf(id).String()
	}
	return v.Operator(id).Name
}

// bound is the running cost of the stages a round has placed of one
// variant. The planner's cost is a sum of non-negative per-edge terms, so
// once the in-edges of the placed stages alone cost more than limit, the
// whole variant does too.
type bound struct {
	delayVolume, wanBytesPerSec float64
	limit                       float64
}

// exceeded adds the in-edges of stage id, whose upstream stages are all
// placed, to the running cost, priced term by term as estimateCost prices
// them, and reports whether the cost now exceeds the limit.
func (b *bound) exceeded(v graphView, sites [][]topology.SiteID, id plan.OpID, top *topology.Topology, outBytes []float64, ws *Workspace) bool {
	ws.toEPs, ws.tmp = appendEndpoints(ws.toEPs[:0], ws.tmp, sites[id])
	for _, u := range v.UpstreamView(id) {
		ws.fromEPs, ws.tmp = appendEndpoints(ws.fromEPs[:0], ws.tmp, sites[u])
		b.delayVolume, b.wanBytesPerSec = addEdgeCost(b.delayVolume, b.wanBytesPerSec, ws.fromEPs, ws.toEPs, outBytes[u], top)
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
	delayVolume, wanBytesPerSec = estimateCost(p.Graph, ws.sitesOf(p), top, ws.rates.Bytes, ws)
	return delayVolume, wanBytesPerSec, nil
}

// estimateCost is EstimateCost over a graph view and its stages' sites,
// given every operator's expected output rate (bytes/s), with
// caller-owned scratch. It sums the edges in ascending producer id, each
// producer's in its downstream order.
func estimateCost(v graphView, sites [][]topology.SiteID, top *topology.Topology, outBytes []float64, ws *Workspace) (delayVolume, wanBytesPerSec float64) {
	for from := range sites {
		ws.fromEPs, ws.tmp = appendEndpoints(ws.fromEPs[:0], ws.tmp, sites[from])
		for _, to := range v.DownstreamView(plan.OpID(from)) {
			ws.toEPs, ws.tmp = appendEndpoints(ws.toEPs[:0], ws.tmp, sites[to])
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
