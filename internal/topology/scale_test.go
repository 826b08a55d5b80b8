package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func scaleShape(t *testing.T, seed int64, regions, edges int) *Topology {
	t.Helper()
	top, err := GenerateScale(DefaultScaleConfig(seed, regions, edges))
	if err != nil {
		t.Fatalf("GenerateScale(%d regions × %d edges): %v", regions, edges, err)
	}
	return top
}

func TestGenerateScaleDeterministic(t *testing.T) {
	// Same seed → byte-identical topology at 100 sites (10×9+hub) and
	// 1000 sites (50×19+hub).
	for _, shape := range []struct{ regions, edges, sites int }{
		{10, 9, 100},
		{50, 19, 1000},
	} {
		a := scaleShape(t, 42, shape.regions, shape.edges)
		b := scaleShape(t, 42, shape.regions, shape.edges)
		if a.N() != shape.sites {
			t.Fatalf("N = %d, want %d", a.N(), shape.sites)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("same-seed %d-site topologies differ", shape.sites)
		}
		c := scaleShape(t, 43, shape.regions, shape.edges)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("different-seed %d-site topologies identical", shape.sites)
		}
	}
}

func TestGenerateScaleRegionStructure(t *testing.T) {
	top := scaleShape(t, 7, 12, 7)
	if got, want := top.N(), 12*8; got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	if got, want := top.NumRegions(), 12; got != want {
		t.Fatalf("NumRegions = %d, want %d", got, want)
	}
	regions := top.RegionSites()
	for r, members := range regions {
		// Each region leads with its hub (lowest ID, a DC).
		hub := top.Site(members[0])
		if hub.Kind != DataCenter || !strings.HasSuffix(hub.Name, "-hub") {
			t.Fatalf("region %d representative = %+v, want hub DC", r, hub)
		}
		if len(members) != 8 {
			t.Fatalf("region %d has %d sites, want 8", r, len(members))
		}
	}
	// Edge sites carry user populations within the profile's bounds.
	users := 0
	for _, s := range top.sites {
		if s.Kind == Edge {
			if s.Users < usersPerEdgeMin || s.Users > usersPerEdgeMax {
				t.Fatalf("edge site %s has %d users, want [%d,%d]", s.Name, s.Users, usersPerEdgeMin, usersPerEdgeMax)
			}
			users += s.Users
		}
	}
	if top.TotalUsers() != users {
		t.Fatalf("TotalUsers = %d, want %d", top.TotalUsers(), users)
	}
}

func TestGenerateScaleMillionsOfUsers(t *testing.T) {
	// The 1000-site default shape must simulate millions of users.
	top := scaleShape(t, 1, 50, 19)
	if top.TotalUsers() < 2_000_000 {
		t.Fatalf("TotalUsers = %d, want >= 2M", top.TotalUsers())
	}
}

func TestGenerateScaleLatencyTiers(t *testing.T) {
	top := scaleShape(t, 3, 8, 4)
	n := top.N()
	regionOf := regionIDs(top)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := SiteID(i), SiteID(j)
			l := top.Latency(a, b)
			if top.Latency(b, a) != l {
				t.Fatalf("latency asymmetric between %d and %d", i, j)
			}
			if bw := top.BaseBandwidth(a, b); bw <= 0 {
				t.Fatalf("non-positive bandwidth %v on %d->%d", bw, i, j)
			}
			switch {
			case i == j:
				if l != intraSiteLat {
					t.Fatalf("intra-site latency %v, want %v", l, intraSiteLat)
				}
			case regionOf[a] == regionOf[b]:
				if l < regionLatMin || l > regionLatMax {
					t.Fatalf("intra-region latency %v outside [%v,%v]", l, regionLatMin, regionLatMax)
				}
			default:
				// Inter-region: ring-distance interpolation with ±10% jitter.
				lo := time.Duration(float64(interLatMin) * 0.9)
				hi := time.Duration(float64(interLatMax) * 1.1)
				if l < lo || l > hi {
					t.Fatalf("inter-region latency %v outside [%v,%v]", l, lo, hi)
				}
			}
		}
	}
}

func TestGenerateScaleDegenerateShapes(t *testing.T) {
	for _, tc := range []struct {
		name           string
		regions, edges int
	}{
		{"zero regions", 0, 3},
		{"negative edges", 4, -1},
		{"single site", 1, 0},
	} {
		if _, err := GenerateScale(DefaultScaleConfig(1, tc.regions, tc.edges)); err == nil {
			t.Errorf("%s: want validation error, got nil", tc.name)
		}
	}
}

// TestScaleShapeCeiling: validate refuses a shape whose site count
// overflows an int or passes maxScaleSites, before GenerateScale allocates
// anything, and accepts the ceiling itself. Only validate runs here: an
// oversized shape must never reach the generator.
func TestScaleShapeCeiling(t *testing.T) {
	for _, tc := range []struct {
		name           string
		regions, edges int
		ok             bool
	}{
		{"product overflows", math.MaxInt, 1, false},
		{"product wraps to zero", 1 << 62, 3, false},
		{"edges overflow", 2, math.MaxInt, false},
		{"one over the ceiling", maxScaleSites + 1, 0, false},
		{"101 × 100 sites", 101, 99, false},
		{"one region over the ceiling", 1, maxScaleSites, false},
		{"the ceiling", 100, 99, true},
		{"the ceiling, one region", 1, maxScaleSites - 1, true},
		{"the ceiling, hubs only", maxScaleSites, 0, true},
		{"1000 sites", 50, 19, true},
	} {
		cfg := DefaultScaleConfig(1, tc.regions, tc.edges)
		err := cfg.validate()
		if tc.ok && err != nil {
			t.Errorf("%s (%d × %d): %v", tc.name, tc.regions, tc.edges, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "more than 10000 sites")) {
			t.Errorf("%s (%d × %d): err %v, want the %d-site ceiling", tc.name, tc.regions, tc.edges, err, maxScaleSites)
		}
	}
}

// dumpHash fingerprints everything a generator produces.
func dumpHash(top *Topology) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%v\n%v\n%v\n%v\n", top.sites, top.lat, top.bw, regionIDs(top))))
	return hex.EncodeToString(sum[:8])
}

// regionIDs is every site's region ID under the partition (nil when the
// topology is unregioned).
func regionIDs(top *Topology) []RegionID {
	if top.regions == nil {
		return nil
	}
	out := make([]RegionID, top.N())
	for r, members := range top.regions {
		for _, s := range members {
			out[s] = RegionID(r)
		}
	}
	return out
}

// TestGeneratedTopologiesPinned holds both generators to their output bit
// for bit: the golden file, the benchmark digests and every recorded
// figure were produced on exactly these topologies.
func TestGeneratedTopologiesPinned(t *testing.T) {
	testbed := []string{"82f050c33d707b14", "83b1e3e9fa1d75cf", "0beb38b5f6591f61"}
	scale4x3 := []string{"01bd82cd29fc66a8", "c7df3334ef1724aa", "e96f130a8f710a06"}
	for i := range testbed {
		seed := int64(i + 1)
		if got := dumpHash(Generate(DefaultGenConfig(seed))); got != testbed[i] {
			t.Errorf("Generate(DefaultGenConfig(%d)) = %s, want %s", seed, got, testbed[i])
		}
		if got := dumpHash(scaleShape(t, seed, 4, 3)); got != scale4x3[i] {
			t.Errorf("GenerateScale(DefaultScaleConfig(%d, 4, 3)) = %s, want %s", seed, got, scale4x3[i])
		}
	}
	if got, want := dumpHash(scaleShape(t, 1, 50, 19)), "d93e34aa9bc01898"; got != want {
		t.Errorf("GenerateScale(DefaultScaleConfig(1, 50, 19)) = %s, want %s", got, want)
	}
}

func TestNewRegionedValidation(t *testing.T) {
	base := Generate(DefaultGenConfig(1))
	sites := slices.Clone(base.sites)
	n := len(sites)
	lat := make([][]time.Duration, n)
	bw := make([][]Mbps, n)
	for i := 0; i < n; i++ {
		lat[i] = make([]time.Duration, n)
		bw[i] = make([]Mbps, n)
		for j := 0; j < n; j++ {
			lat[i][j] = base.Latency(SiteID(i), SiteID(j))
			bw[i][j] = base.BaseBandwidth(SiteID(i), SiteID(j))
		}
	}
	mk := func(regionOf []RegionID) error {
		_, err := NewRegioned(sites, lat, bw, regionOf)
		return err
	}
	if err := mk(make([]RegionID, n-1)); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := make([]RegionID, n)
	bad[3] = -1
	if err := mk(bad); err == nil {
		t.Error("negative region ID accepted")
	}
	sparse := make([]RegionID, n)
	sparse[0] = 2 // region 1 never used -> not dense
	for i := 1; i < n; i++ {
		sparse[i] = 0
	}
	if err := mk(sparse); err == nil {
		t.Error("sparse region IDs accepted")
	}
	ok := make([]RegionID, n)
	for i := range ok {
		ok[i] = RegionID(i % 4)
	}
	top, err := NewRegioned(sites, lat, bw, ok)
	if err != nil {
		t.Fatalf("valid regioned topology rejected: %v", err)
	}
	if top.NumRegions() != 4 {
		t.Fatalf("NumRegions = %d, want 4", top.NumRegions())
	}
}

func TestClusterRegions(t *testing.T) {
	top := scaleShape(t, 5, 8, 5)
	k := 8
	regions := ClusterRegions(top, k)
	if len(regions) != k {
		t.Fatalf("got %d clusters, want %d", len(regions), k)
	}
	seen := make(map[SiteID]bool)
	for r, members := range regions {
		if len(members) == 0 {
			t.Fatalf("cluster %d empty", r)
		}
		for i, s := range members {
			if seen[s] {
				t.Fatalf("site %d in two clusters", s)
			}
			seen[s] = true
			if i > 0 && members[i-1] >= s {
				t.Fatalf("cluster %d members not ascending: %v", r, members)
			}
		}
	}
	if len(seen) != top.N() {
		t.Fatalf("clusters cover %d sites, want %d", len(seen), top.N())
	}
	again := ClusterRegions(top, k)
	if !reflect.DeepEqual(regions, again) {
		t.Fatal("ClusterRegions not deterministic")
	}
	// Degenerate k values clamp.
	if got := ClusterRegions(top, 0); len(got) != 1 {
		t.Fatalf("k=0: got %d clusters, want 1", len(got))
	}
	if got := ClusterRegions(top, top.N()+5); len(got) != top.N() {
		t.Fatalf("k>n: got %d clusters, want %d", len(got), top.N())
	}
}

// BenchmarkGenerateScale builds the 1000-site planet (50 regions × 19 edge
// sites) the scale runs start from.
func BenchmarkGenerateScale(b *testing.B) {
	cfg := DefaultScaleConfig(1, 50, 19)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateScale(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
