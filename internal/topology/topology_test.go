package topology

import (
	"math/rand"
	"testing"
	"time"
)

func testTopology(t *testing.T) *Topology {
	t.Helper()
	return Generate(DefaultGenConfig(1))
}

func TestGenerateDefaultShape(t *testing.T) {
	top := testTopology(t)
	if got, want := top.N(), 16; got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	edges := top.SitesOfKind(Edge)
	dcs := top.SitesOfKind(DataCenter)
	if len(edges) != 8 || len(dcs) != 8 {
		t.Fatalf("kinds = %d edge / %d dc, want 8/8", len(edges), len(dcs))
	}
	for _, id := range dcs {
		if top.Slots(id) != 8 {
			t.Errorf("dc site %d slots = %d, want 8", id, top.Slots(id))
		}
	}
	for _, id := range edges {
		if s := top.Slots(id); s < 2 || s > 4 {
			t.Errorf("edge site %d slots = %d, want 2..4", id, s)
		}
	}
	if total := top.TotalSlots(); total < 80 || total > 96 {
		t.Fatalf("TotalSlots = %d, want within [80,96]", total)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultGenConfig(7))
	b := Generate(DefaultGenConfig(7))
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.N(); j++ {
			if a.BaseBandwidth(SiteID(i), SiteID(j)) != b.BaseBandwidth(SiteID(i), SiteID(j)) {
				t.Fatalf("bandwidth %d->%d differs across same-seed generations", i, j)
			}
			if a.Latency(SiteID(i), SiteID(j)) != b.Latency(SiteID(i), SiteID(j)) {
				t.Fatalf("latency %d->%d differs across same-seed generations", i, j)
			}
		}
	}
}

func TestGenerateLinkRanges(t *testing.T) {
	top := Generate(DefaultGenConfig(3))
	for i := 0; i < top.N(); i++ {
		for j := 0; j < top.N(); j++ {
			from, to := SiteID(i), SiteID(j)
			bw := top.BaseBandwidth(from, to)
			lat := top.Latency(from, to)
			if i == j {
				if bw != intraSiteBW || lat != intraSiteLat {
					t.Fatalf("intra-site link %d has bw=%v lat=%v", i, bw, lat)
				}
				continue
			}
			if bw <= 0 {
				t.Fatalf("link %d->%d bandwidth %v <= 0", i, j, bw)
			}
			if lat <= 0 {
				t.Fatalf("link %d->%d latency %v <= 0", i, j, lat)
			}
			dcPair := top.Site(from).Kind == DataCenter && top.Site(to).Kind == DataCenter
			if dcPair {
				// Forward direction sampled from [dcBWMin, dcBWMax]; the
				// reverse may be scaled by the asymmetry factor.
				maxBW := Mbps(float64(dcBWMax) * (1 + asymmetryMax))
				if bw > maxBW {
					t.Fatalf("dc link %d->%d bandwidth %v > %v", i, j, bw, maxBW)
				}
			} else {
				maxBW := Mbps(float64(edgeBWMax) * (1 + asymmetryMax))
				if bw > maxBW {
					t.Fatalf("edge link %d->%d bandwidth %v > %v", i, j, bw, maxBW)
				}
			}
		}
	}
}

func TestEdgeLinksSlowerThanDCLinks(t *testing.T) {
	top := testTopology(t)
	edgeBW, _ := top.LinkValues(EdgePair)
	dcBW, _ := top.LinkValues(DataCenterPair)
	mean := func(xs []Mbps) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	if mean(edgeBW) >= mean(dcBW) {
		t.Fatalf("edge mean bw %.1f >= dc mean bw %.1f; Fig 7 shape violated",
			mean(edgeBW), mean(dcBW))
	}
}

func TestLinkValuesSortedAndCounted(t *testing.T) {
	top := testTopology(t)
	dcBW, dcLat := top.LinkValues(DataCenterPair)
	// 8 DCs → 8*7 = 56 directional pairs.
	if len(dcBW) != 56 || len(dcLat) != 56 {
		t.Fatalf("dc pair samples = %d/%d, want 56/56", len(dcBW), len(dcLat))
	}
	edgeBW, edgeLat := top.LinkValues(EdgePair)
	// Total directional pairs 16*15=240; edge-touching = 240-56 = 184.
	if len(edgeBW) != 184 || len(edgeLat) != 184 {
		t.Fatalf("edge pair samples = %d/%d, want 184/184", len(edgeBW), len(edgeLat))
	}
	for i := 1; i < len(dcBW); i++ {
		if dcBW[i] < dcBW[i-1] {
			t.Fatal("dc bandwidth values not sorted")
		}
	}
	for i := 1; i < len(edgeLat); i++ {
		if edgeLat[i] < edgeLat[i-1] {
			t.Fatal("edge latency values not sorted")
		}
	}
}

func TestNewValidation(t *testing.T) {
	sites := []Site{{ID: 0, Name: "a", Kind: Edge, Slots: 1}}
	okLat := [][]time.Duration{{0}}
	okBW := [][]Mbps{{1}}

	if _, err := New(sites, okLat, okBW); err != nil {
		t.Fatalf("valid New errored: %v", err)
	}
	if _, err := New(sites, [][]time.Duration{}, okBW); err == nil {
		t.Fatal("New accepted mismatched latency matrix")
	}
	if _, err := New(sites, okLat, [][]Mbps{{-1}}); err == nil {
		t.Fatal("New accepted negative bandwidth")
	}
	bad := []Site{{ID: 5, Name: "a", Kind: Edge, Slots: 1}}
	if _, err := New(bad, okLat, okBW); err == nil {
		t.Fatal("New accepted non-dense site IDs")
	}
	neg := []Site{{ID: 0, Name: "a", Kind: Edge, Slots: -1}}
	if _, err := New(neg, okLat, okBW); err == nil {
		t.Fatal("New accepted negative slots")
	}
}

func TestMbpsConversions(t *testing.T) {
	b := Mbps(80)
	if got := b.MBPerSec(); got != 10 {
		t.Fatalf("MBPerSec = %v, want 10", got)
	}
	if got := b.BytesPerSec(); got != 10e6 {
		t.Fatalf("BytesPerSec = %v, want 1e7", got)
	}
}

func TestSiteKindString(t *testing.T) {
	if Edge.String() != "edge" || DataCenter.String() != "datacenter" {
		t.Fatal("SiteKind.String mismatch")
	}
	if got := SiteKind(9).String(); got != "SiteKind(9)" {
		t.Fatalf("unknown kind String = %q", got)
	}
}

func TestSitesReturnsCopy(t *testing.T) {
	top := testTopology(t)
	sites := top.Sites()
	sites[0].Slots = 999
	if top.Slots(0) == 999 {
		t.Fatal("Sites() exposed internal state")
	}
}

func TestGenerateWithMatchesWrapper(t *testing.T) {
	a := Generate(DefaultGenConfig(9))
	b := GenerateWith(rand.New(rand.NewSource(9)))
	if a.N() != b.N() {
		t.Fatalf("site count mismatch: %d vs %d", a.N(), b.N())
	}
	for i := 0; i < a.N(); i++ {
		if a.Site(SiteID(i)) != b.Site(SiteID(i)) {
			t.Fatalf("site %d differs", i)
		}
		for j := 0; j < a.N(); j++ {
			from, to := SiteID(i), SiteID(j)
			if a.BaseBandwidth(from, to) != b.BaseBandwidth(from, to) ||
				a.Latency(from, to) != b.Latency(from, to) {
				t.Fatalf("link %d->%d differs", i, j)
			}
		}
	}
}

// TestLatencySecondsRows: the cached rows and columns hold exactly
// Latency(...).Seconds(), keep direction on an asymmetric matrix, and are
// built once.
func TestLatencySecondsRows(t *testing.T) {
	sites := []Site{{ID: 0, Slots: 1}, {ID: 1, Slots: 1}, {ID: 2, Slots: 1}}
	lat := [][]time.Duration{
		{500 * time.Microsecond, 7 * time.Millisecond, 1500*time.Millisecond + 1},
		{9 * time.Millisecond, 500 * time.Microsecond, 33 * time.Millisecond},
		{2 * time.Second, 1, 500 * time.Microsecond},
	}
	bw := [][]Mbps{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}
	top, err := New(sites, lat, bw)
	if err != nil {
		t.Fatal(err)
	}
	for a := SiteID(0); a < 3; a++ {
		from, to := top.LatencySecondsFrom(a), top.LatencySecondsTo(a)
		if len(from) != 3 || len(to) != 3 {
			t.Fatalf("site %d: row/column lengths %d/%d, want 3", a, len(from), len(to))
		}
		for b := SiteID(0); b < 3; b++ {
			if want := top.Latency(a, b).Seconds(); from[b] != want {
				t.Errorf("LatencySecondsFrom(%d)[%d] = %v, want %v", a, b, from[b], want)
			}
			if want := top.Latency(b, a).Seconds(); to[b] != want {
				t.Errorf("LatencySecondsTo(%d)[%d] = %v, want %v", a, b, to[b], want)
			}
		}
		if again := top.LatencySecondsFrom(a); &again[0] != &from[0] {
			t.Errorf("LatencySecondsFrom(%d) rebuilt its row", a)
		}
	}
}
