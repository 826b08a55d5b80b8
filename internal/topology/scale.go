package topology

import (
	"fmt"
	"math/rand"
	"time"
)

// ScaleConfig shapes GenerateScale, the planet-scale topology generator: R
// regions laid out on a ring, each with one hub data center and S edge
// sites, R·(S+1) sites in all. Start from DefaultScaleConfig.
type ScaleConfig struct {
	Seed int64

	Regions       int // R
	EdgePerRegion int // S
}

// DefaultScaleConfig returns the planet-scale profile of the given shape.
func DefaultScaleConfig(seed int64, regions, edgePerRegion int) ScaleConfig {
	return ScaleConfig{Seed: seed, Regions: regions, EdgePerRegion: edgePerRegion}
}

// The planet-scale profile: 2–4 slot edge clusters with 2000–5000 users
// each behind 16-slot regional hubs. Link properties come in tiers — an
// intra-site fabric, fat short intra-region links, a 100–400 Mbps hub↔hub
// backbone, thin ~10–50 Mbps long-haul links wherever an edge site is an
// endpoint, and inter-region latency that grows with ring distance up to
// ~280 ms. Edge sites carry simulated user populations; scale scenarios
// derive per-site source rates from them.
const (
	hubSlots = 16

	// Simulated users behind each edge site (uniform).
	usersPerEdgeMin, usersPerEdgeMax = 2000, 5000

	// Intra-region links (edge↔edge and edge↔hub within one region).
	regionBWMin, regionBWMax   Mbps = 50, 200
	regionLatMin, regionLatMax      = 2 * time.Millisecond, 20 * time.Millisecond

	// Inter-region links: latency interpolates between interLatMin and
	// interLatMax with the ring distance between the two regions (±10%
	// jitter); hub↔hub links use the backbone bandwidth tier, links
	// touching an edge site the thin long-haul tier.
	longHaulBWMin, longHaulBWMax Mbps = 10, 50
	hubBWMin, hubBWMax           Mbps = 100, 400
	interLatMin, interLatMax          = 40 * time.Millisecond, 280 * time.Millisecond
)

// validate rejects degenerate shapes. The shape is often computed (sweeps,
// waspd's -scale-regions/-scale-edges), so GenerateScale returns errors
// instead of panicking.
func (cfg *ScaleConfig) validate() error {
	if cfg.Regions < 1 {
		return fmt.Errorf("topology: scale config needs >= 1 region, have %d", cfg.Regions)
	}
	if cfg.EdgePerRegion < 0 {
		return fmt.Errorf("topology: negative edge sites per region (%d)", cfg.EdgePerRegion)
	}
	if n := cfg.Regions * (cfg.EdgePerRegion + 1); n < 2 {
		return fmt.Errorf("topology: scale config yields %d site(s), need >= 2", n)
	}
	return nil
}

// GenerateScale builds a seeded region-structured planet-scale topology:
// a pure function of cfg, byte-identical for the same config. Site order
// is hub-first per region (so each region's lowest ID — its hierarchical
// representative — is the hub), regions in ring order.
func GenerateScale(cfg ScaleConfig) (*Topology, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	R, S := cfg.Regions, cfg.EdgePerRegion
	n := R * (S + 1)

	sites := make([]Site, 0, n)
	regionOf := make([]RegionID, 0, n)
	for r := 0; r < R; r++ {
		sites = append(sites, Site{
			ID:    SiteID(len(sites)),
			Name:  fmt.Sprintf("r%d-hub", r),
			Kind:  DataCenter,
			Slots: hubSlots,
		})
		regionOf = append(regionOf, RegionID(r))
		for i := 0; i < S; i++ {
			sites = append(sites, Site{
				ID:    SiteID(len(sites)),
				Name:  fmt.Sprintf("r%d-edge-%d", r, i+1),
				Kind:  Edge,
				Slots: edgeSlotsMin + rng.Intn(edgeSlotsMax-edgeSlotsMin+1),
				Users: usersPerEdgeMin + rng.Intn(usersPerEdgeMax-usersPerEdgeMin+1),
			})
			regionOf = append(regionOf, RegionID(r))
		}
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
	maxHop := max(1, R/2)
	for i := 0; i < n; i++ {
		lat[i][i] = intraSiteLat
		bw[i][i] = intraSiteBW
		for j := i + 1; j < n; j++ {
			ri, rj := regionOf[i], regionOf[j]
			var b Mbps
			var l time.Duration
			if ri == rj {
				b = uniformBW(regionBWMin, regionBWMax)
				l = uniformDur(regionLatMin, regionLatMax)
			} else {
				if sites[i].Kind == Edge || sites[j].Kind == Edge {
					b = uniformBW(longHaulBWMin, longHaulBWMax)
				} else {
					b = uniformBW(hubBWMin, hubBWMax)
				}
				hop := int(ri) - int(rj)
				if hop < 0 {
					hop = -hop
				}
				hop = min(hop, R-hop)
				base := interLatMin +
					time.Duration(float64(interLatMax-interLatMin)*float64(hop)/float64(maxHop))
				jitter := 0.9 + 0.2*rng.Float64()
				l = time.Duration(float64(base) * jitter)
			}
			bw[i][j] = b
			lat[i][j] = l
			// Reverse direction: correlated but asymmetric bandwidth;
			// propagation delay is symmetric.
			bw[j][i] = max(0.1, Mbps(float64(b)*(1+(rng.Float64()*2-1)*asymmetryMax)))
			lat[j][i] = l
		}
	}
	return NewRegioned(sites, lat, bw, regionOf)
}

// ClusterRegions partitions an arbitrary topology into k latency
// clusters — the region structure the hierarchical planner needs when the
// topology does not carry its own (e.g. the §8.2 testbed in oracle
// cross-validation). Deterministic farthest-point seeding: seed 0 is site
// 0, each further seed maximizes the minimum symmetrized latency to the
// chosen seeds (ties to the lowest site ID); every site then joins its
// nearest seed. Regions are ordered by seed, members ascending.
func ClusterRegions(t *Topology, k int) [][]SiteID {
	n := t.N()
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	dist := func(a, b SiteID) float64 {
		d1, d2 := t.Latency(a, b).Seconds(), t.Latency(b, a).Seconds()
		if d2 > d1 {
			return d2
		}
		return d1
	}
	seeds := make([]SiteID, 1, k)
	seeds[0] = 0
	minD := make([]float64, n)
	assign := make([]int, n)
	for s := 0; s < n; s++ {
		minD[s] = dist(0, SiteID(s))
	}
	for len(seeds) < k {
		far, farD := SiteID(-1), -1.0
		for s := 0; s < n; s++ {
			if minD[s] > farD {
				far, farD = SiteID(s), minD[s]
			}
		}
		idx := len(seeds)
		seeds = append(seeds, far)
		for s := 0; s < n; s++ {
			if d := dist(far, SiteID(s)); d < minD[s] {
				minD[s] = d
				assign[s] = idx
			}
		}
	}
	// Re-assign from scratch so ties resolve to the lowest seed index
	// regardless of seeding order.
	for s := 0; s < n; s++ {
		best, bestD := 0, dist(seeds[0], SiteID(s))
		for i := 1; i < len(seeds); i++ {
			if d := dist(seeds[i], SiteID(s)); d < bestD {
				best, bestD = i, d
			}
		}
		assign[s] = best
	}
	regions := make([][]SiteID, len(seeds))
	for s := 0; s < n; s++ {
		regions[assign[s]] = append(regions[assign[s]], SiteID(s))
	}
	// Farthest-point seeding guarantees every seed is its own nearest
	// seed (distance 0), so no region is empty.
	return regions
}
