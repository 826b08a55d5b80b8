package physical

import (
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
	sites   [][]topology.SiteID
	rates   plan.RateBuf
	pr      placement.Problem
	sol     placement.Scratch

	// lat caches the topology's Latency method value so solveStage does
	// not allocate a fresh closure per placement program.
	//waspvet:guardedby latTop
	lat    func(from, to topology.SiteID) time.Duration
	latTop *topology.Topology
	// bw caches the default Bandwidth hook, the topology's base
	// bandwidth, so a round that leaves ScheduleConfig.Bandwidth nil
	// does not allocate a fresh closure.
	//waspvet:guardedby bwTop
	bw    func(from, to topology.SiteID) float64
	bwTop *topology.Topology

	// hier and the cached region partition serve SolvePlacement's
	// hierarchical path on planet-scale topologies.
	hier placement.HierScratch
	//waspvet:guardedby regionsTop
	regions    [][]topology.SiteID
	regionsTop *topology.Topology
}

// sitesOf loads the task sites of p's stages into the workspace's sites
// table, indexed by OpID, and returns the table.
func (ws *Workspace) sitesOf(p *Plan) [][]topology.SiteID {
	sites := ws.sites[:0]
	for _, st := range p.Stages {
		sites = append(sites, st.Sites)
	}
	ws.sites = sites
	return sites
}

// latencyFn returns a cached top.Latency method value.
func (ws *Workspace) latencyFn(top *topology.Topology) func(from, to topology.SiteID) time.Duration {
	if ws.latTop != top {
		ws.latTop = top
		ws.lat = top.Latency
	}
	return ws.lat
}

// baseBandwidthFn returns a cached hook reading top's base bandwidth in
// bytes/s.
func (ws *Workspace) baseBandwidthFn(top *topology.Topology) func(from, to topology.SiteID) float64 {
	if ws.bwTop != top {
		ws.bwTop = top
		ws.bw = func(from, to topology.SiteID) float64 { return top.BaseBandwidth(from, to).BytesPerSec() }
	}
	return ws.bw
}

// regionsFor returns the topology's region partition (topology.Domains),
// cached per topology.
func (ws *Workspace) regionsFor(top *topology.Topology) [][]topology.SiteID {
	if ws.regionsTop != top {
		ws.regionsTop = top
		ws.regions = topology.Domains(top)
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
	if regions := ws.hierRegions(pr, top, hierSites); regions != nil {
		return pr.SolveHierarchicalInto(regions, &ws.hier)
	}
	return pr.SolveInto(&ws.sol)
}

// place is SolvePlacement with the infeasible verdict as a count of the
// tasks no site could take, not an error (placement.Problem.PlaceInto).
func (ws *Workspace) place(pr *placement.Problem, top *topology.Topology, hierSites int) (*placement.Placement, int, error) {
	if regions := ws.hierRegions(pr, top, hierSites); regions != nil {
		return pr.PlaceHierarchicalInto(regions, &ws.hier)
	}
	return pr.PlaceInto(&ws.sol)
}

// hierRegions returns the region partition pr is solved over, or nil when
// the exact solver takes it: below hierSites sites (0 selects
// placement.DefaultHierarchicalThreshold, negative means never), or
// without a topology of pr's size.
func (ws *Workspace) hierRegions(pr *placement.Problem, top *topology.Topology, hierSites int) [][]topology.SiteID {
	threshold := hierSites
	if threshold == 0 {
		threshold = placement.DefaultHierarchicalThreshold
	}
	if threshold < 0 || top == nil || pr.Sites < threshold || pr.Sites != top.N() {
		return nil
	}
	return ws.regionsFor(top)
}
