package engine

// The engine store. A running job's structure has one representation: the
// deployed plan plus two sorted slices — groups in groupKeyLess order and
// flows in flowKeyLess order — looked up by binary search, with one
// operator's groups (opGroups) and outbound flows (opFlows) as contiguous
// views. Every iteration over them is therefore already in the canonical
// replay-stable order.
//
// Structure changes in three places only — Deploy, finalizeReconfig and
// progressReplan's switch — and only through setPlan/placeOp/setFlows,
// each of which bumps gen. Everything else the tick needs (who a flow
// delivers to, where a group fans out, the stage order, the link table) is
// a pointer or slice on the records themselves, written by exactly one
// function, rewire(), which each mutator calls once when it is done and
// which stamps wired = gen. The tick refuses to run on a store whose
// stamp is stale. CrashSite/RestoreSite/InjectStraggler touch per-group or
// per-site state only and are not structural.

import (
	"fmt"
	"slices"
	"sort"

	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// fanSite is one fan-out target of one sending group: the downstream
// group at one site and the share of the sender's output it receives
// (its fraction of the downstream operator's tasks). flow is the send
// queue carrying the share across sites, nil when dst is at the sender's
// own site.
type fanSite struct {
	share float64
	dst   *group
	flow  *edgeFlow
}

// groupIndex returns the position of the first group not ordered before k.
func (e *Engine) groupIndex(k groupKey) int {
	return sort.Search(len(e.groups), func(i int) bool { return !groupKeyLess(e.groups[i].key(), k) })
}

// group returns the task group of one operator at one site, nil if none.
func (e *Engine) group(op plan.OpID, site topology.SiteID) *group {
	k := groupKey{op: op, site: site}
	if i := e.groupIndex(k); i < len(e.groups) && e.groups[i].key() == k {
		return e.groups[i]
	}
	return nil
}

// opGroups returns the groups of one operator, ascending by site: a view
// into the store, valid until the next structural mutation.
func (e *Engine) opGroups(op plan.OpID) []*group {
	lo, hi := e.groupIndex(groupKey{op: op}), e.groupIndex(groupKey{op: op + 1})
	return e.groups[lo:hi:hi]
}

// flowIndex returns the position of the first flow not ordered before k.
func (e *Engine) flowIndex(k flowKey) int {
	return sort.Search(len(e.flows), func(i int) bool { return !flowKeyLess(e.flows[i].key, k) })
}

// flow returns the flow of one (edge, site-pair), nil if none.
func (e *Engine) flow(k flowKey) *edgeFlow {
	if i := e.flowIndex(k); i < len(e.flows) && e.flows[i].key == k {
		return e.flows[i]
	}
	return nil
}

// opFlows returns the flows sent by one operator in flowKeyLess order: a
// view into the store, valid until the next structural mutation.
func (e *Engine) opFlows(op plan.OpID) []*edgeFlow {
	lo, hi := e.flowIndex(flowKey{from: op}), e.flowIndex(flowKey{from: op + 1})
	return e.flows[lo:hi:hi]
}

// setPlan installs p as the deployed plan with no groups: groups belong to
// the plan they were built for.
func (e *Engine) setPlan(p *physical.Plan) {
	e.plan, e.groups = p, nil
	e.gen++
}

// placeOp installs a placement for one operator: the stage's Sites and, in
// place of whatever groups the operator had, one fresh group per distinct
// site (ascending) holding that site's task count. It returns the new
// groups. The store gets a fresh backing array, so views taken before the
// call stay coherent (if stale).
func (e *Engine) placeOp(op plan.OpID, sites []topology.SiteID) []*group {
	st := e.plan.Stages[op]
	st.Sites = sites
	distinct := st.DistinctSites()
	gs := make([]*group, len(distinct))
	for i, site := range distinct {
		gs[i] = e.newGroup(op, site, countSites(sites, site))
	}
	lo, hi := e.groupIndex(groupKey{op: op}), e.groupIndex(groupKey{op: op + 1})
	e.groups = slices.Concat(e.groups[:lo], gs, e.groups[hi:])
	e.gen++
	return gs
}

func (e *Engine) newGroup(op plan.OpID, site topology.SiteID, tasks int) *group {
	g := &group{op: e.plan.Graph.Operator(op), site: site, tasks: tasks}
	g.windowed = g.op.Window > 0
	g.cap = g.capacity(e.cfg.SlotRate)
	g.bpLimit = g.cap * backpressureSec
	g.isSink = g.op.Kind == plan.KindSink
	g.sigma = g.op.Selectivity
	if g.op.Kind == plan.KindSource {
		g.sigma = 1
	}
	return g
}

// setFlows installs the flow set, sorting it into store order.
func (e *Engine) setFlows(flows []*edgeFlow) {
	sort.Slice(flows, func(i, j int) bool { return flowKeyLess(flows[i].key, flows[j].key) })
	e.flows = flows
	e.gen++
}

// rewire re-derives every pointer the tick follows from plan + store, and
// checks what the tick takes for granted: the plan is acyclic, every flow
// has a netsim flow, a live sender group and a live destination group, and
// every fan-out target resolves. A violation is a bug in a mutator, caught
// here at mutation time instead of being skipped over every tick.
func (e *Engine) rewire() {
	order, err := e.plan.StageIDs()
	if err != nil {
		panic(fmt.Sprintf("engine: invalid plan at runtime: %v", err))
	}
	graph := e.plan.Graph

	e.stages = make([][]*group, len(order))
	for i, id := range order {
		e.stages[i] = e.opGroups(id)
	}
	// Sources are pinned to one site: a single group takes the arrivals.
	e.srcs = nil
	e.frontOps = make(map[plan.OpID]bool)
	for _, id := range graph.Sources() {
		e.srcs = append(e.srcs, e.opGroups(id)[0])
		for _, d := range graph.DownstreamView(id) {
			e.frontOps[d] = true
		}
	}

	for _, g := range e.groups {
		g.front = e.frontOps[g.op.ID]
		g.out = nil // refilled by the flow sweep below
		g.fan = nil
		for _, down := range graph.DownstreamView(g.op.ID) {
			dsts := e.opGroups(down)
			total := 0
			for _, d := range dsts {
				total += d.tasks
			}
			for _, d := range dsts {
				fs := fanSite{share: float64(d.tasks) / float64(total), dst: d}
				if d.site != g.site {
					k := flowKey{from: g.op.ID, to: down, fromSite: g.site, toSite: d.site}
					if fs.flow = e.flow(k); fs.flow == nil {
						panic(fmt.Sprintf("engine: fan-out %+v has no flow", k))
					}
				}
				g.fan = append(g.fan, fs)
			}
		}
	}
	e.links = nil
	linkIDs := make(map[sitePair]int32)
	for _, f := range e.flows {
		src := e.group(f.key.from, f.key.fromSite)
		f.dst = e.group(f.key.to, f.key.toSite)
		if f.flow == nil || src == nil || f.dst == nil {
			panic(fmt.Sprintf("engine: flow %+v lacks a netsim flow, sender group or destination group", f.key))
		}
		src.out = append(src.out, f)
		f.srcFront = src.front
		pair := sitePair{from: f.key.fromSite, to: f.key.toSite}
		id, ok := linkIDs[pair]
		if !ok {
			id = int32(len(e.links))
			linkIDs[pair] = id
			e.links = append(e.links, pair)
		}
		f.linkID = id
	}
	e.linkCaps = make([]float64, len(e.links))
	e.refreshLinkCaps()

	e.wired = e.gen
}
