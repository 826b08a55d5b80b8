// Package topology models the wide-area deployment substrate: geo-
// distributed sites (edge clusters and data centers), their computing
// slots, and the pair-wise WAN link properties (bandwidth and latency)
// between them.
//
// The default generator reproduces the paper's testbed (§8.2): 16 nodes —
// 8 edge nodes with 2–4 slots each and 8 data-center nodes with 8 slots
// each — whose inter-site bandwidth/latency distributions follow Figure 7
// (data-center links derived from EC2 measurements, edge links from the
// public-Internet statistics reported by Akamai).
package topology

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"
)

// Mbps is a network bandwidth in megabits per second.
type Mbps float64

// BytesPerSec converts a bandwidth to bytes per second.
//
//waspvet:hotpath
func (b Mbps) BytesPerSec() float64 { return float64(b) * 1e6 / 8 }

// SiteID identifies a site within a Topology (dense, 0-based).
type SiteID int

// SiteKind distinguishes edge clusters from data centers.
type SiteKind int

const (
	// Edge is a small edge cluster connected over the public Internet.
	Edge SiteKind = iota + 1
	// DataCenter is a large cloud data center.
	DataCenter
)

// String returns a human-readable kind name.
func (k SiteKind) String() string {
	switch k {
	case Edge:
		return "edge"
	case DataCenter:
		return "datacenter"
	default:
		return fmt.Sprintf("SiteKind(%d)", int(k))
	}
}

// Site is one geo-distributed location offering computing slots.
type Site struct {
	ID    SiteID
	Name  string
	Kind  SiteKind
	Slots int // computing slots provided by the site's Task Manager
	// Users is the simulated user population behind the site (edge sites
	// of planet-scale topologies; zero for the §8.2 testbed). Source
	// rates of scale scenarios derive from it.
	Users int
}

// RegionID identifies a site cluster within a regioned topology (dense,
// 0-based). The hierarchical placement planner solves a region-level
// program before refining within each chosen region.
type RegionID int

// Topology is an immutable description of sites and base (unloaded) WAN
// link properties. Directional: bandwidth/latency from s1 to s2 may differ
// from s2 to s1 (the paper notes diverse inbound/outbound bandwidth).
type Topology struct {
	sites []Site
	lat   [][]time.Duration // lat[from][to]
	bw    [][]Mbps          // bw[from][to], base capacity

	// Region partition, region -> member sites ascending (planet-scale
	// topologies only; nil when the topology is unregioned, e.g. the §8.2
	// testbed).
	regions [][]SiteID

	// Latency in float64 seconds, one row (from a site to every site) or
	// column (from every site to a site) per entry, built on first use by
	// LatencySecondsFrom/To. Only the handful of sites that host stream
	// endpoints are ever asked for, so the cache stays far below the
	// dense n×n table it indexes into.
	secFrom []atomic.Pointer[[]float64]
	secTo   []atomic.Pointer[[]float64]
}

// New assembles a topology from explicit matrices. Both matrices must be
// n×n where n = len(sites). Diagonal entries describe intra-site links.
func New(sites []Site, lat [][]time.Duration, bw [][]Mbps) (*Topology, error) {
	n := len(sites)
	if len(lat) != n || len(bw) != n {
		return nil, fmt.Errorf("topology: matrix size mismatch (n=%d, lat=%d, bw=%d)", n, len(lat), len(bw))
	}
	for i := 0; i < n; i++ {
		if len(lat[i]) != n || len(bw[i]) != n {
			return nil, fmt.Errorf("topology: row %d size mismatch", i)
		}
		if sites[i].ID != SiteID(i) {
			return nil, fmt.Errorf("topology: site %d has ID %d, want dense IDs", i, sites[i].ID)
		}
		if sites[i].Slots < 0 {
			return nil, fmt.Errorf("topology: site %d has negative slots", i)
		}
		for j := 0; j < n; j++ {
			if bw[i][j] < 0 || lat[i][j] < 0 {
				return nil, fmt.Errorf("topology: negative link property %d->%d", i, j)
			}
		}
	}
	return &Topology{
		sites: sites, lat: lat, bw: bw,
		secFrom: make([]atomic.Pointer[[]float64], n),
		secTo:   make([]atomic.Pointer[[]float64], n),
	}, nil
}

// NewRegioned is New for topologies carrying a region partition: regionOf
// assigns every site to a dense region ID and every region must be
// non-empty. The hierarchical placement planner consumes the partition via
// RegionSites.
func NewRegioned(sites []Site, lat [][]time.Duration, bw [][]Mbps, regionOf []RegionID) (*Topology, error) {
	t, err := New(sites, lat, bw)
	if err != nil {
		return nil, err
	}
	if len(regionOf) != len(sites) {
		return nil, fmt.Errorf("topology: %d region assignments for %d sites", len(regionOf), len(sites))
	}
	nRegions := 0
	for i, r := range regionOf {
		if r < 0 {
			return nil, fmt.Errorf("topology: site %d has negative region %d", i, r)
		}
		if int(r)+1 > nRegions {
			nRegions = int(r) + 1
		}
	}
	regions := make([][]SiteID, nRegions)
	for i, r := range regionOf {
		regions[r] = append(regions[r], SiteID(i))
	}
	for r, members := range regions {
		if len(members) == 0 {
			return nil, fmt.Errorf("topology: region %d is empty (IDs must be dense)", r)
		}
	}
	t.regions = regions
	return t, nil
}

// N returns the number of sites.
//
//waspvet:hotpath
func (t *Topology) N() int { return len(t.sites) }

// NumRegions returns the number of regions of the partition, or 0 when
// the topology is unregioned.
func (t *Topology) NumRegions() int { return len(t.regions) }

// RegionSites returns the region partition as per-region member lists in
// region-index order (ascending site IDs; the first member of a generated
// region is its hub), or nil when the topology is unregioned. The returned
// slices are shared and must not be mutated.
func (t *Topology) RegionSites() [][]SiteID { return t.regions }

// TotalUsers returns the total simulated user population across sites.
func (t *Topology) TotalUsers() int {
	total := 0
	for _, s := range t.sites {
		total += s.Users
	}
	return total
}

// Site returns the site with the given ID.
func (t *Topology) Site(id SiteID) Site { return t.sites[id] }

// Slots returns the number of computing slots at site id.
func (t *Topology) Slots(id SiteID) int { return t.sites[id].Slots }

// TotalSlots returns the total number of slots across all sites.
func (t *Topology) TotalSlots() int {
	total := 0
	for _, s := range t.sites {
		total += s.Slots
	}
	return total
}

// Latency returns the one-way base latency from one site to another.
//
//waspvet:hotpath
func (t *Topology) Latency(from, to SiteID) time.Duration { return t.lat[from][to] }

// LatencySecondsFrom returns Latency(from, s).Seconds() for every site s
// as one contiguous row, so a placement solve sweeps plain floats instead
// of converting a Duration per (endpoint, site) pair. The row is built on
// first use, shared between callers and safe for concurrent use; it must
// not be mutated.
//
//waspvet:hotpath
func (t *Topology) LatencySecondsFrom(from SiteID) []float64 {
	return t.seconds(&t.secFrom[from], from, false)
}

// LatencySecondsTo is the column counterpart of LatencySecondsFrom: element
// s is Latency(s, to).Seconds().
//
//waspvet:hotpath
func (t *Topology) LatencySecondsTo(to SiteID) []float64 {
	return t.seconds(&t.secTo[to], to, true)
}

// seconds returns the row (or, transposed, the column) of site cached in
// slot, building it on first use.
//
//waspvet:hotpath
func (t *Topology) seconds(slot *atomic.Pointer[[]float64], site SiteID, transposed bool) []float64 {
	if row := slot.Load(); row != nil {
		return *row
	}
	return t.buildSeconds(slot, site, transposed) //waspvet:hotalloc cold branch: first use of this endpoint site
}

// buildSeconds fills one row or column of the seconds cache. Concurrent
// builders compute identical values; the first to publish wins and the
// others adopt its slice.
func (t *Topology) buildSeconds(slot *atomic.Pointer[[]float64], site SiteID, transposed bool) []float64 {
	row := make([]float64, len(t.sites))
	for s := range row {
		if transposed {
			row[s] = t.lat[s][site].Seconds()
		} else {
			row[s] = t.lat[site][s].Seconds()
		}
	}
	if !slot.CompareAndSwap(nil, &row) {
		return *slot.Load()
	}
	return row
}

// BaseBandwidth returns the unloaded capacity of the from→to link.
//
//waspvet:hotpath
func (t *Topology) BaseBandwidth(from, to SiteID) Mbps { return t.bw[from][to] }

// SitesOfKind returns the IDs of all sites of the given kind, ascending.
func (t *Topology) SitesOfKind(k SiteKind) []SiteID {
	var out []SiteID
	for _, s := range t.sites {
		if s.Kind == k {
			out = append(out, s.ID)
		}
	}
	return out
}

// PairClass classifies an inter-site link for Figure 7 style reporting.
type PairClass int

const (
	// DataCenterPair is a link between two data centers.
	DataCenterPair PairClass = iota + 1
	// EdgePair is a link with at least one edge endpoint.
	EdgePair
)

// LinkValues collects the directional inter-site (from≠to) bandwidth and
// latency samples for a pair class, each sorted ascending — the raw series
// behind the Figure 7 CDFs.
func (t *Topology) LinkValues(class PairClass) (bws []Mbps, lats []time.Duration) {
	for i := range t.sites {
		for j := range t.sites {
			if i == j {
				continue
			}
			isDC := t.sites[i].Kind == DataCenter && t.sites[j].Kind == DataCenter
			if (class == DataCenterPair) != isDC {
				continue
			}
			bws = append(bws, t.bw[i][j])
			lats = append(lats, t.lat[i][j])
		}
	}
	sort.Slice(bws, func(a, b int) bool { return bws[a] < bws[b] })
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	return bws, lats
}

// GenConfig selects one generated testbed; use DefaultGenConfig.
type GenConfig struct {
	Seed int64
}

// DefaultGenConfig returns the configuration of the paper's §8.2 testbed
// for a seed.
func DefaultGenConfig(seed int64) GenConfig {
	return GenConfig{Seed: seed}
}

// The §8.2 testbed: 8 edge nodes (2–4 slots), 8 data-center nodes (8
// slots); DC links follow the EC2-derived Figure 7 distribution (tens to
// ~250 Mbps, up to ~300 ms); edge links follow the public-Internet profile
// (average <10 Mbps per Akamai, lower same-region latency).
const (
	edgeSites = 8
	dcSlots   = 8

	dcBWMin, dcBWMax   Mbps = 40, 250 // data-center↔data-center links
	dcLatMin, dcLatMax      = 20 * time.Millisecond, 300 * time.Millisecond

	edgeBWMin, edgeBWMax   Mbps = 2.5, 6 // any link touching an edge site
	edgeLatMin, edgeLatMax      = 5 * time.Millisecond, 60 * time.Millisecond
)

// dcNames names the testbed's data centers, one site each.
var dcNames = [...]string{
	"oregon", "ohio", "ireland", "frankfurt",
	"seoul", "singapore", "mumbai", "sao-paulo",
}

// Shared by the testbed and the planet-scale generator.
const (
	edgeSlotsMin, edgeSlotsMax = 2, 4

	intraSiteBW  Mbps = 10000 // effectively-unconstrained in-site fabric
	intraSiteLat      = 500 * time.Microsecond

	asymmetryMax = 0.3 // reverse direction scaled by U[1-a, 1+a]
)

// Generate builds the seeded random §8.2 testbed. The topology is a pure
// function of cfg (randomness comes from a fresh source seeded with
// cfg.Seed).
func Generate(cfg GenConfig) *Topology {
	return GenerateWith(rand.New(rand.NewSource(cfg.Seed)))
}

// GenerateWith is Generate drawing from the caller's rng — for callers
// that thread one seeded source through several generators.
func GenerateWith(rng *rand.Rand) *Topology {
	n := len(dcNames) + edgeSites
	sites := make([]Site, 0, n)
	for _, name := range dcNames {
		sites = append(sites, Site{
			ID:    SiteID(len(sites)),
			Name:  name,
			Kind:  DataCenter,
			Slots: dcSlots,
		})
	}
	for i := 0; i < edgeSites; i++ {
		sites = append(sites, Site{
			ID:    SiteID(len(sites)),
			Name:  fmt.Sprintf("edge-%d", i+1),
			Kind:  Edge,
			Slots: edgeSlotsMin + rng.Intn(edgeSlotsMax-edgeSlotsMin+1),
		})
	}

	lat := make([][]time.Duration, n)
	bw := make([][]Mbps, n)
	for i := range lat {
		lat[i] = make([]time.Duration, n)
		bw[i] = make([]Mbps, n)
	}
	uniformDur := func(lo, hi time.Duration) time.Duration {
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}
	uniformBW := func(lo, hi Mbps) Mbps {
		return lo + Mbps(rng.Float64())*(hi-lo)
	}
	for i := 0; i < n; i++ {
		lat[i][i] = intraSiteLat
		bw[i][i] = intraSiteBW
		for j := i + 1; j < n; j++ {
			var b Mbps
			var l time.Duration
			if sites[i].Kind == DataCenter && sites[j].Kind == DataCenter {
				b = uniformBW(dcBWMin, dcBWMax)
				l = uniformDur(dcLatMin, dcLatMax)
			} else {
				b = uniformBW(edgeBWMin, edgeBWMax)
				l = uniformDur(edgeLatMin, edgeLatMax)
			}
			bw[i][j] = b
			lat[i][j] = l
			// Reverse direction: correlated but asymmetric bandwidth;
			// propagation delay is symmetric.
			bw[j][i] = max(0.1, Mbps(float64(b)*(1+(rng.Float64()*2-1)*asymmetryMax)))
			lat[j][i] = l
		}
	}

	t, err := New(sites, lat, bw)
	if err != nil {
		panic(fmt.Sprintf("topology: generator produced invalid topology: %v", err))
	}
	return t
}
