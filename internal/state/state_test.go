package state

import (
	"testing"
	"testing/quick"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/topology"
)

func TestStorePutLatest(t *testing.T) {
	s := NewStore()
	if _, _, ok := s.LatestExcluding("j", "op", 0); ok {
		t.Fatal("empty store returned a snapshot")
	}
	if err := s.Put(Ref{Job: "j", Operator: "op", Task: 0, Epoch: 1, Site: 2}, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Ref{Job: "j", Operator: "op", Task: 0, Epoch: 2, Site: 2}, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	ref, data, ok := s.LatestExcluding("j", "op", 0)
	if !ok || string(data) != "v2" || ref.Epoch != 2 {
		t.Fatalf("LatestExcluding() = (%+v, %q, %v)", ref, data, ok)
	}
	if ref.Size != 2 {
		t.Fatalf("Size = %d, want 2", ref.Size)
	}
}

func TestStoreEpochMonotonic(t *testing.T) {
	s := NewStore()
	if err := s.Put(Ref{Job: "j", Operator: "op", Epoch: 5, Site: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Ref{Job: "j", Operator: "op", Epoch: 5, Site: 1}, nil); err == nil {
		t.Fatal("duplicate epoch at same site accepted")
	}
	if err := s.Put(Ref{Job: "j", Operator: "op", Epoch: 4, Site: 2}, nil); err == nil {
		t.Fatal("regressing epoch accepted")
	}
	// Replication: the same epoch at a different site is a replica copy.
	if err := s.Put(Ref{Job: "j", Operator: "op", Epoch: 5, Site: 2}, nil); err != nil {
		t.Fatalf("replica put rejected: %v", err)
	}
	if err := s.Put(Ref{Job: "j", Operator: "op", Epoch: 5, Site: 1}, nil); err == nil {
		t.Fatal("re-put of replicated epoch at original site accepted")
	}
	if err := s.Put(Ref{Job: "j", Operator: "op", Epoch: 6, Site: 1}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStoreLatestExcluding(t *testing.T) {
	s := NewStore()
	mustPut := func(epoch int64, site int, v string) {
		t.Helper()
		if err := s.Put(Ref{Job: "j", Operator: "op", Task: 2, Epoch: epoch, Site: topoSite(site)}, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(1, 0, "e1@0")
	mustPut(2, 0, "e2@0")
	mustPut(2, 4, "e2@4") // replica of epoch 2
	mustPut(3, 0, "e3@0")

	// Site 0 dies: the freshest surviving copy is epoch 2's replica at 4.
	ref, data, ok := s.LatestExcluding("j", "op", 2, 0)
	if !ok || string(data) != "e2@4" || ref.Epoch != 2 || ref.Site != 4 {
		t.Fatalf("LatestExcluding(0) = (%+v, %q, %v)", ref, data, ok)
	}
	// With no exclusions: the most recent snapshot.
	ref, _, ok = s.LatestExcluding("j", "op", 2)
	if !ok || ref.Epoch != 3 || ref.Site != 0 {
		t.Fatalf("LatestExcluding() = (%+v, %v)", ref, ok)
	}
	// Multiple exclusions.
	if _, _, ok := s.LatestExcluding("j", "op", 2, 0, 4); ok {
		t.Fatal("LatestExcluding(0,4) found a copy at an excluded site")
	}
}

// The critical recovery case: every copy of the task's state lived on the
// site that died. Restoring from it would be restoring from nothing —
// LatestExcluding must say so rather than hand back a dead ref.
func TestStoreLatestExcludingOnlyCopyOnDeadSite(t *testing.T) {
	s := NewStore()
	for e := int64(1); e <= 3; e++ {
		if err := s.Put(Ref{Job: "j", Operator: "agg", Task: 0, Epoch: e, Site: 5}, []byte{byte(e)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := s.LatestExcluding("j", "agg", 0); !ok {
		t.Fatal("LatestExcluding() lost the snapshots")
	}
	if ref, _, ok := s.LatestExcluding("j", "agg", 0, 5); ok {
		t.Fatalf("LatestExcluding(5) returned %+v although the only copies were at site 5", ref)
	}
	// An unrelated exclusion still finds the copies.
	if _, _, ok := s.LatestExcluding("j", "agg", 0, 7); !ok {
		t.Fatal("LatestExcluding(7) missed the site-5 copies")
	}
}

// The latest snapshot held at one site is the latest once every other
// site is excluded: a localized restore reads no copy from elsewhere.
func TestStoreLatestAtSite(t *testing.T) {
	s := NewStore()
	mustPut := func(epoch int64, site int, v string) {
		t.Helper()
		if err := s.Put(Ref{Job: "j", Operator: "op", Task: 1, Epoch: epoch, Site: topoSite(site)}, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(1, 0, "at0")
	mustPut(2, 1, "at1")
	mustPut(3, 1, "at1b")

	ref, data, ok := s.LatestExcluding("j", "op", 1, 1)
	if !ok || string(data) != "at0" || ref.Epoch != 1 {
		t.Fatalf("latest at site 0 = (%+v, %q, %v)", ref, data, ok)
	}
	ref, data, ok = s.LatestExcluding("j", "op", 1, 0)
	if !ok || string(data) != "at1b" || ref.Epoch != 3 {
		t.Fatalf("latest at site 1 = (%+v, %q, %v)", ref, data, ok)
	}
	if _, _, ok := s.LatestExcluding("j", "op", 1, 0, 1); ok {
		t.Fatal("latest at a site holding no copy returned data")
	}
}

// Prune drops a task's copies older than an epoch whatever their site. A
// put already drops the older copy at its own site, so the task's copies
// here are one per site, epochs 3 to 5.
func TestStorePrune(t *testing.T) {
	s := NewStore()
	for e := int64(1); e <= 5; e++ {
		if err := s.Put(Ref{Job: "j", Operator: "op", Epoch: e, Site: topoSite(int(e+1) % 3)}, []byte{byte(e)}); err != nil {
			t.Fatal(err)
		}
	}
	if refs := storedRefs(s); len(refs) != 3 || refs[0].Epoch != 3 || refs[1].Epoch != 4 || refs[2].Epoch != 5 {
		t.Fatalf("before prune refs = %v", refs)
	}
	s.Prune("j", "op", 0, 4)
	refs := storedRefs(s)
	if len(refs) != 2 || refs[0].Epoch != 4 || refs[1].Epoch != 5 {
		t.Fatalf("after prune refs = %v", refs)
	}
	s.Prune("j", "op", 0, 100)
	if len(storedRefs(s)) != 0 {
		t.Fatal("prune-all left snapshots")
	}
}

// A put keeps the task's newest copy per site: five rounds at a site and
// its replica leave two copies, and the bytes a round's two copies share
// come back as a spare only once neither copy is kept.
func TestStoreKeepsNewestCopyPerSite(t *testing.T) {
	s := NewStore()
	bufs := make([][]byte, 6)
	for e := int64(1); e <= 5; e++ {
		bufs[e] = []byte{byte(e), 0, 0}
		for _, site := range []int{2, 0} {
			if err := s.PutOwned(Ref{Job: "j", Operator: "op", Epoch: e, Site: topoSite(site)}, bufs[e]); err != nil {
				t.Fatal(err)
			}
			if sp := s.Spare(); e > 1 && site == 0 {
				if len(sp) != 0 || cap(sp) != 3 || &sp[:1][0] != &bufs[e-1][0] {
					t.Fatalf("epoch %d: spare %v (cap %d) is not epoch %d's bytes", e, sp, cap(sp), e-1)
				}
			} else if sp != nil {
				t.Fatalf("epoch %d site %d: spare %v while a kept copy holds it", e, site, sp)
			}
		}
	}
	refs := storedRefs(s)
	if len(refs) != 2 || refs[0] != (Ref{Job: "j", Operator: "op", Epoch: 5, Site: 2, Size: 3}) || refs[1].Site != 0 || refs[1].Epoch != 5 {
		t.Fatalf("refs = %v; want epoch 5 at sites 2 and 0", refs)
	}
	if n := s.BytesAt(2) + s.BytesAt(0); n != 6 {
		t.Fatalf("%d bytes stored; want 6", n)
	}
}

func TestStoreBytesAt(t *testing.T) {
	s := NewStore()
	_ = s.Put(Ref{Job: "j", Operator: "a", Epoch: 1, Site: 0}, make([]byte, 10))
	_ = s.Put(Ref{Job: "j", Operator: "b", Epoch: 1, Site: 0}, make([]byte, 5))
	_ = s.Put(Ref{Job: "j", Operator: "c", Epoch: 1, Site: 1}, make([]byte, 7))
	if got := s.BytesAt(0); got != 15 {
		t.Fatalf("BytesAt(0) = %d, want 15", got)
	}
	if got := s.BytesAt(1); got != 7 {
		t.Fatalf("BytesAt(1) = %d, want 7", got)
	}
}

func TestStoreCopiesData(t *testing.T) {
	s := NewStore()
	data := []byte("orig")
	_ = s.Put(Ref{Job: "j", Operator: "op", Epoch: 1}, data)
	data[0] = 'X'
	_, got, _ := s.LatestExcluding("j", "op", 0)
	if string(got) != "orig" {
		t.Fatal("store aliased caller data")
	}
	got[0] = 'Y'
	_, got2, _ := s.LatestExcluding("j", "op", 0)
	if string(got2) != "orig" {
		t.Fatal("store leaked internal data")
	}
}

func TestPartitionKeyProperties(t *testing.T) {
	if PartitionKey("anything", 1) != 0 {
		t.Fatal("single-partition key not 0")
	}
	if PartitionKey("anything", 0) != 0 {
		t.Fatal("degenerate partition count not 0")
	}
	err := quick.Check(func(key string, n uint8) bool {
		parts := int(n%16) + 2
		p := PartitionKey(key, parts)
		if p < 0 || p >= parts {
			return false
		}
		// Deterministic.
		return PartitionKey(key, parts) == p
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartitionKeySpreads(t *testing.T) {
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		counts[PartitionKey(string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune(i)), 4)]++
	}
	for p, c := range counts {
		if c < 100 {
			t.Fatalf("partition %d got %d of 1000 keys — badly skewed", p, c)
		}
	}
}

// topoSite converts an int to a topology.SiteID for test brevity.
func topoSite(i int) topology.SiteID { return topology.SiteID(i) }

// storedRefs returns the refs of every stored snapshot, ordered by task key
// then epoch.
func storedRefs(s *Store) []Ref {
	names := make(map[string]taskKey, len(s.snaps))
	for _, es := range s.snaps {
		k := es[0].ref.taskKey()
		names[k.String()] = k
	}
	var out []Ref
	for _, name := range detutil.SortedKeys(names) {
		for _, e := range s.snaps[names[name]] {
			out = append(out, e.ref)
		}
	}
	return out
}
