// Package physical models physical query plans: each logical operator
// becomes an execution stage running `parallelism` tasks, each task bound
// to one computing slot at one site. The package also provides WASP's
// WAN-aware initial scheduler (one stage at a time in topological order,
// §4.1) and the joint logical/physical planner used by query re-planning
// (§4.3). The planner's Session schedules each combine order straight
// from its tree, keeps each candidate as its tree and its costs, and
// builds a variant's graph and plan only for a round's winner; Schedule,
// PlaceTasks, EstimateCost and the session place and price stages through
// one implementation over a graph view and a sites table.
package physical

import (
	"fmt"
	"slices"

	"github.com/wasp-stream/wasp/internal/placement"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// Stage is the physical execution of one logical operator.
type Stage struct {
	// Op points at the operator in the plan's logical graph.
	Op *plan.Operator
	// Sites lists each task's site; len(Sites) is the stage parallelism.
	Sites []topology.SiteID
}

// Parallelism returns the stage's task count, 0 for a nil stage (what
// Plan.Stage gives an ID that names none).
func (s *Stage) Parallelism() int {
	if s == nil {
		return 0
	}
	return len(s.Sites)
}

// DistinctSites returns the sites hosting at least one task, ascending.
func DistinctSites(sites []topology.SiteID) []topology.SiteID {
	out := slices.Clone(sites)
	slices.Sort(out)
	return slices.Compact(out)
}

// Plan is a physical plan over a logical graph.
type Plan struct {
	Graph *plan.Graph
	// Stages is indexed by OpID and holds one stage per operator of
	// Graph: it is Graph.Len() long.
	Stages []*Stage
}

// FromLogical validates g and lays out an unplaced physical plan over it:
// one stage per logical operator, each with room for the one task
// Schedule gives a stage by default. Use Schedule to place tasks. The
// stages are one block and their site lists another, and a site list that
// outgrows its room reallocates instead of writing into its neighbour's.
func FromLogical(g *plan.Graph) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Graph: g, Stages: make([]*Stage, g.Len())}
	stages := make([]Stage, g.Len())
	sites := make([]topology.SiteID, g.Len())
	for id := range p.Stages {
		st := &stages[id]
		st.Op = g.Operator(plan.OpID(id))
		st.Sites = sites[id : id : id+1]
		p.Stages[id] = st
	}
	return p, nil
}

// clonePlan lays out a copy of from's stages over g, a clone of its
// graph: the stages are one block and their site lists another, each with
// room for exactly its own sites. A list that outgrows its room
// reallocates instead of writing into its neighbour's.
func clonePlan(g *plan.Graph, from *Plan) *Plan {
	p := &Plan{Graph: g, Stages: make([]*Stage, g.Len())}
	stages := make([]Stage, g.Len())
	block := make([]topology.SiteID, from.TotalTasks())
	for id, st := range from.Stages {
		stages[id].Op = g.Operator(plan.OpID(id))
		if k := copy(block, st.Sites); k > 0 {
			stages[id].Sites, block = block[:k:k], block[k:]
		}
		p.Stages[id] = &stages[id]
	}
	return p
}

// Stage returns operator id's stage, or nil when id names none.
func (p *Plan) Stage(id plan.OpID) *Stage {
	if uint(id) >= uint(len(p.Stages)) {
		return nil
	}
	return p.Stages[id]
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
	for id, st := range p.Stages {
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
func (p *Plan) Clone() *Plan { return clonePlan(p.Graph.Clone(), p) }

// appendEndpoints summarises the placement of a stage whose tasks run at
// sites as weighted per-site endpoints, weighting each site by its share
// of the stage's tasks (even event partitioning, §7). Endpoints are
// appended to dst and the site-sorting buffer is grown from tmp; both are
// returned for reuse. The planner calls this per stage pair per variant
// per round; the scratch keeps it allocation-free at steady state.
func appendEndpoints(dst []placement.Endpoint, tmp, sites []topology.SiteID) ([]placement.Endpoint, []topology.SiteID) {
	switch len(sites) {
	case 0:
		return dst, tmp
	case 1: // the default parallelism: nothing to sort or count
		return append(dst, placement.Endpoint{Site: sites[0], Weight: 1}), tmp
	}
	tmp = append(tmp[:0], sites...)
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
