package physical

import (
	"math"
	"time"

	"github.com/wasp-stream/wasp/internal/placement"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// Workspace holds reusable scratch buffers for repeated Schedule,
// ReassignStage and cost-estimation calls. A re-planning round, every
// round of the run, places the variants' shared prefix once and then
// schedules the combine suffix of each of up to ~10^2 plan variants;
// without buffer reuse the per-stage endpoint lists, rate buffers and
// placement programs dominated the steady-state allocation profile.
//
// The zero value is ready to use. A Workspace is NOT safe for concurrent
// use; parallel experiment jobs must each use their own (or leave
// ScheduleConfig.Workspace nil for allocate-per-call behaviour).
type Workspace struct {
	avail   []int
	ups     []placement.Endpoint
	eps     []placement.Endpoint
	fromEPs []placement.Endpoint
	toEPs   []placement.Endpoint
	tmp     []topology.SiteID
	rates   plan.RateBuf
	pr      placement.Problem
	sol     placement.Scratch

	// lat caches the topology's Latency method value so solveStage does
	// not allocate a fresh closure per placement program.
	//waspvet:guardedby latTop
	lat    func(from, to topology.SiteID) time.Duration
	latTop *topology.Topology

	// hier and the cached region partition serve SolvePlacement's
	// hierarchical path on planet-scale topologies.
	hier placement.HierScratch
	//waspvet:guardedby regionsTop
	regions    [][]topology.SiteID
	regionsTop *topology.Topology
}

// latencyFn returns a cached top.Latency method value.
func (ws *Workspace) latencyFn(top *topology.Topology) func(from, to topology.SiteID) time.Duration {
	if ws.latTop != top {
		ws.latTop = top
		ws.lat = top.Latency
	}
	return ws.lat
}

// regionsFor returns the cached region partition for the topology: its
// own region structure when it has one (GenerateScale topologies), else
// a deterministic ~√N-way latency clustering.
func (ws *Workspace) regionsFor(top *topology.Topology) [][]topology.SiteID {
	if ws.regionsTop != top {
		ws.regionsTop = top
		if top.NumRegions() > 0 {
			ws.regions = top.RegionSites()
		} else {
			k := int(math.Ceil(math.Sqrt(float64(top.N()))))
			ws.regions = topology.ClusterRegions(top, k)
		}
	}
	return ws.regions
}

// SolvePlacement solves one placement program through the workspace's
// scratch, dispatching to the hierarchical two-level planner when the
// instance spans at least hierSites sites (0 selects
// placement.DefaultHierarchicalThreshold, negative forces the exact
// solver). The returned Placement aliases workspace buffers and is valid
// only until the next solve through the same workspace.
func (ws *Workspace) SolvePlacement(pr *placement.Problem, top *topology.Topology, hierSites int) (*placement.Placement, error) {
	threshold := hierSites
	if threshold == 0 {
		threshold = placement.DefaultHierarchicalThreshold
	}
	if threshold < 0 || top == nil || pr.Sites < threshold || pr.Sites != top.N() {
		return pr.SolveInto(&ws.sol)
	}
	return pr.SolveHierarchicalInto(ws.regionsFor(top), &ws.hier)
}
