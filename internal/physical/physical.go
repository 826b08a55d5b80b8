// Package physical models physical query plans: each logical operator
// becomes an execution stage running `parallelism` tasks, each task bound
// to one computing slot at one site. The package also provides WASP's
// WAN-aware initial scheduler (one stage at a time in topological order,
// §4.1) and the joint logical/physical planner used by query re-planning
// (§4.3).
package physical

import (
	"fmt"
	"slices"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/placement"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// TaskID identifies one task: the Index-th parallel instance of the stage
// executing logical operator Op.
type TaskID struct {
	Op    plan.OpID
	Index int
}

// String renders e.g. "op3#1".
func (t TaskID) String() string { return fmt.Sprintf("op%d#%d", t.Op, t.Index) }

// Stage is the physical execution of one logical operator.
type Stage struct {
	// Op points at the operator in the plan's logical graph.
	Op *plan.Operator
	// Sites lists each task's site; len(Sites) is the stage parallelism.
	Sites []topology.SiteID
}

// Parallelism returns the stage's task count.
func (s *Stage) Parallelism() int { return len(s.Sites) }

// TasksPerSite aggregates the stage's placement as p[s].
func (s *Stage) TasksPerSite(numSites int) []int {
	out := make([]int, numSites)
	for _, site := range s.Sites {
		out[site]++
	}
	return out
}

// DistinctSites returns the sites hosting at least one task, ascending.
func (s *Stage) DistinctSites() []topology.SiteID {
	seen := make(map[topology.SiteID]bool)
	for _, site := range s.Sites {
		seen[site] = true
	}
	return detutil.SortedKeys(seen)
}

// Plan is a physical plan over a logical graph.
type Plan struct {
	Graph  *plan.Graph
	Stages map[plan.OpID]*Stage
}

// FromLogical creates an unplaced physical plan: one stage per logical
// operator, all with empty placements. Use Schedule to place tasks.
func FromLogical(g *plan.Graph) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Graph: g, Stages: make(map[plan.OpID]*Stage, g.Len())}
	stages := make([]Stage, g.Len())
	for i, id := range g.OperatorIDs() {
		stages[i].Op = g.Operator(id)
		p.Stages[id] = &stages[i]
	}
	return p, nil
}

// StageIDs returns the plan's operator IDs in topological order.
func (p *Plan) StageIDs() ([]plan.OpID, error) { return p.Graph.TopoOrder() }

// SlotsUsed returns the number of slots occupied per site across all
// stages.
func (p *Plan) SlotsUsed(numSites int) []int {
	used := make([]int, numSites)
	for _, st := range p.Stages {
		for _, site := range st.Sites {
			used[site]++
		}
	}
	return used
}

// TotalTasks returns the number of tasks across all stages.
func (p *Plan) TotalTasks() int {
	total := 0
	for _, st := range p.Stages {
		total += len(st.Sites)
	}
	return total
}

// Validate checks the plan against a topology: every stage placed, every
// site within slot capacity, pinned stages at their pinned site. Stages are
// checked in ascending operator ID, so a plan with several violations
// always reports the same one.
func (p *Plan) Validate(top *topology.Topology) error {
	for _, id := range p.Graph.OperatorIDs() {
		st := p.Stages[id]
		if len(st.Sites) == 0 {
			return fmt.Errorf("physical: stage %q (op %d) not placed", st.Op.Name, id)
		}
		if st.Op.PinnedSite != plan.NoSite {
			for _, site := range st.Sites {
				if site != st.Op.PinnedSite {
					return fmt.Errorf("physical: pinned stage %q has task at site %d", st.Op.Name, site)
				}
			}
		}
		for _, site := range st.Sites {
			if int(site) < 0 || int(site) >= top.N() {
				return fmt.Errorf("physical: stage %q task at unknown site %d", st.Op.Name, site)
			}
		}
	}
	used := p.SlotsUsed(top.N())
	for s, n := range used {
		if n > top.Slots(topology.SiteID(s)) {
			return fmt.Errorf("physical: site %d over capacity: %d > %d slots", s, n, top.Slots(topology.SiteID(s)))
		}
	}
	return nil
}

// Clone deep-copies the plan (sharing the logical graph's operator structs
// via a cloned graph).
func (p *Plan) Clone() *Plan {
	g := p.Graph.Clone()
	c := &Plan{Graph: g, Stages: make(map[plan.OpID]*Stage, len(p.Stages))}
	stages := make([]Stage, g.Len())
	for i, id := range g.OperatorIDs() {
		stages[i] = Stage{Op: g.Operator(id), Sites: append([]topology.SiteID(nil), p.Stages[id].Sites...)}
		c.Stages[id] = &stages[i]
	}
	return c
}

// Endpoints summarises a stage's placement as weighted per-site endpoints,
// weighting each site by its share of the stage's tasks (even event
// partitioning, §7).
func (s *Stage) Endpoints() []placement.Endpoint {
	out, _ := s.AppendEndpoints(nil, nil)
	return out
}

// AppendEndpoints is Endpoints with caller-provided scratch: endpoints are
// appended to dst and the site-sorting buffer is grown from tmp. Both are
// returned for reuse. The planner calls this per stage pair per variant
// per round; the scratch keeps it allocation-free at steady state.
func (s *Stage) AppendEndpoints(dst []placement.Endpoint, tmp []topology.SiteID) ([]placement.Endpoint, []topology.SiteID) {
	if len(s.Sites) == 0 {
		return dst, tmp
	}
	tmp = append(tmp[:0], s.Sites...)
	slices.Sort(tmp)
	total := float64(len(tmp))
	for i := 0; i < len(tmp); {
		j := i
		for j < len(tmp) && tmp[j] == tmp[i] {
			j++
		}
		dst = append(dst, placement.Endpoint{Site: tmp[i], Weight: float64(j-i) / total})
		i = j
	}
	return dst, tmp
}
