package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The generators as they were written over math/rand: the references
// Generate and GenerateScale, which draw from a detutil.Source and carve
// their matrices from one block, are held to on every field.

// countingSource is math/rand's source, counting the draws made from it.
type countingSource struct {
	rand.Source64
	draws int
}

func (c *countingSource) Int63() int64   { c.draws++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.draws++; return c.Source64.Uint64() }

func newCountingRand(seed int64) (*rand.Rand, *countingSource) {
	src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	return rand.New(src), src
}

// refGenerate is Generate over math/rand's generator.
func refGenerate(rng *rand.Rand) *Topology {
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

// refGenerateScale is GenerateScale over math/rand's generator.
func refGenerateScale(rng *rand.Rand, cfg ScaleConfig) (*Topology, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
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
			bw[j][i] = max(0.1, Mbps(float64(b)*(1+(rng.Float64()*2-1)*asymmetryMax)))
			lat[j][i] = l
		}
	}
	return NewRegioned(sites, lat, bw, regionOf)
}

// oracleSeeds are the seeds math/rand's seeding treats specially: zero,
// ±1, the LCG modulus 2³¹−1 (which reduces to zero) and the ends of int64.
var oracleSeeds = []int64{0, 1, -1, math.MaxInt32, math.MinInt64, math.MaxInt64}

// sameTopology reports the first field where got and want differ: a site,
// a latency, a bandwidth or a region assignment.
func sameTopology(got, want *Topology) error {
	if !slices.Equal(got.sites, want.sites) {
		return fmt.Errorf("sites differ:\n got %v\nwant %v", got.sites, want.sites)
	}
	for i := range want.sites {
		for j := range want.sites {
			if got.lat[i][j] != want.lat[i][j] {
				return fmt.Errorf("latency %d->%d: %v, want %v", i, j, got.lat[i][j], want.lat[i][j])
			}
			if math.Float64bits(float64(got.bw[i][j])) != math.Float64bits(float64(want.bw[i][j])) {
				return fmt.Errorf("bandwidth %d->%d: %v, want %v", i, j, got.bw[i][j], want.bw[i][j])
			}
		}
	}
	if g, w := regionIDs(got), regionIDs(want); !slices.Equal(g, w) {
		return fmt.Errorf("regions: %v, want %v", g, w)
	}
	return nil
}

// TestGenerateMatchesMathRandReference holds the §8.2 testbed to the
// generator over math/rand at every oracle seed and the seeds of the
// pinned hashes.
func TestGenerateMatchesMathRandReference(t *testing.T) {
	for _, seed := range append([]int64{2, 3, 9}, oracleSeeds...) {
		want := refGenerate(rand.New(rand.NewSource(seed)))
		if err := sameTopology(Generate(DefaultGenConfig(seed)), want); err != nil {
			t.Errorf("Generate(seed %d): %v", seed, err)
		}
	}
}

// TestGenerateScaleMatchesMathRandReference holds GenerateScale to the
// generator over math/rand at every oracle seed, on the smallest shapes,
// the pinned 4×3, the 1000-site 50×19, and a shape whose draw count
// crosses 273, where detutil.Source builds math/rand's whole register.
func TestGenerateScaleMatchesMathRandReference(t *testing.T) {
	crossed := false
	for _, shape := range []struct{ regions, edges int }{
		{1, 1}, {3, 0}, {2, 6}, {4, 3}, {50, 19},
	} {
		for _, seed := range oracleSeeds {
			cfg := DefaultScaleConfig(seed, shape.regions, shape.edges)
			rng, src := newCountingRand(seed)
			want, err := refGenerateScale(rng, cfg)
			if err != nil {
				t.Fatalf("%+v: reference: %v", cfg, err)
			}
			got := scaleShape(t, seed, shape.regions, shape.edges)
			if err := sameTopology(got, want); err != nil {
				t.Errorf("GenerateScale(%+v): %v", cfg, err)
			}
			if shape.regions == 2 && src.draws > 273 && src.draws < 607 {
				crossed = true
			}
		}
	}
	if !crossed {
		t.Error("the 2×6 shape no longer crosses draw 273 below the register length")
	}
}
