package state

import (
	"errors"
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

func TestStorePrune(t *testing.T) {
	s := NewStore()
	for e := int64(1); e <= 5; e++ {
		if err := s.Put(Ref{Job: "j", Operator: "op", Epoch: e}, []byte{byte(e)}); err != nil {
			t.Fatal(err)
		}
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

func TestCoordinatorErrorHandling(t *testing.T) {
	store := NewStore()
	var errs []error
	c := NewCoordinator(store, func(err error) { errs = append(errs, err) })
	c.Register(Target{
		Job: "q", Operator: "bad", Task: 0,
		Snapshot: func() ([]byte, error) { return nil, errors.New("boom") },
	})
	c.Checkpoint()
	if len(errs) != 1 {
		t.Fatalf("errs = %v", errs)
	}
	if _, _, ok := store.LatestExcluding("q", "bad", 0); ok {
		t.Fatal("failed snapshot was stored")
	}
}

func TestCoordinatorReRegisterMovesSite(t *testing.T) {
	store := NewStore()
	c := NewCoordinator(store, nil)
	mk := func(site int) Target {
		return Target{
			Job: "q", Operator: "op", Task: 0, Site: topoSite(site),
			Snapshot: func() ([]byte, error) { return []byte("x"), nil },
		}
	}
	c.Register(mk(0))
	c.Checkpoint()
	c.Register(mk(5)) // task migrated
	c.Checkpoint()
	if c.Targets() != 1 {
		t.Fatalf("Targets = %d, want 1 (re-register replaces)", c.Targets())
	}
	ref, _, _ := store.LatestExcluding("q", "op", 0)
	if ref.Site != 5 {
		t.Fatalf("latest site = %v, want 5", ref.Site)
	}
}

// Regression: Checkpoint used to iterate the targets map directly, so
// Go's randomized map order leaked into the onError sequence and the
// Store.Put order — a determinism hole in a repo whose same-seed JSONL
// is byte-identical by contract. With a failing target in the mix, the
// error position varied run to run. Rounds must now visit targets in
// sorted key order every time.
func TestCoordinatorCheckpointDeterministicOrder(t *testing.T) {
	run := func() (errs []string, refs []Ref) {
		store := NewStore()
		c := NewCoordinator(store, func(err error) { errs = append(errs, err.Error()) })
		for i := 0; i < 8; i++ {
			i := i
			tgt := Target{
				Job: "q", Operator: "op", Task: i, Site: topoSite(i),
				Snapshot: func() ([]byte, error) { return []byte{byte(i)}, nil },
			}
			if i == 2 || i == 6 {
				tgt.Snapshot = func() ([]byte, error) { return nil, errors.New("disk gone") }
			}
			c.Register(tgt)
		}
		c.Checkpoint()
		return errs, storedRefs(store)
	}

	wantErrs := []string{
		"checkpoint q/op/2 epoch 1: disk gone",
		"checkpoint q/op/6 epoch 1: disk gone",
	}
	for trial := 0; trial < 20; trial++ {
		errs, refs := run()
		if len(errs) != len(wantErrs) || errs[0] != wantErrs[0] || errs[1] != wantErrs[1] {
			t.Fatalf("trial %d: error order %v, want %v", trial, errs, wantErrs)
		}
		if len(refs) != 6 {
			t.Fatalf("trial %d: %d refs stored, want 6", trial, len(refs))
		}
	}
}

func TestCoordinatorReplicatesCheckpoints(t *testing.T) {
	store := NewStore()
	c := NewCoordinator(store, func(err error) { t.Fatal(err) })
	c.Register(Target{
		Job: "q", Operator: "agg", Task: 0, Site: 3,
		Replicas: []topology.SiteID{1, 3}, // the duplicate of site 3 must be skipped
		Snapshot: func() ([]byte, error) { return []byte("s"), nil },
	})
	c.Checkpoint()
	refs := storedRefs(store)
	if len(refs) != 2 {
		t.Fatalf("refs = %v, want primary + one replica", refs)
	}
	if refs[0].Site != 3 || refs[1].Site != 1 || refs[0].Epoch != 1 || refs[1].Epoch != 1 {
		t.Fatalf("refs = %v", refs)
	}
	// The replica is what survives the primary site's death.
	ref, data, ok := store.LatestExcluding("q", "agg", 0, 3)
	if !ok || ref.Site != 1 || string(data) != "s" {
		t.Fatalf("LatestExcluding(3) = (%+v, %q, %v)", ref, data, ok)
	}
}

func TestCoordinatorUnregister(t *testing.T) {
	c := NewCoordinator(NewStore(), nil)
	c.Register(Target{Job: "q", Operator: "op", Task: 0, Snapshot: func() ([]byte, error) { return nil, nil }})
	c.Unregister("q", "op", 0)
	if c.Targets() != 0 {
		t.Fatalf("Targets = %d after Unregister", c.Targets())
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
	var out []Ref
	for _, k := range detutil.SortedKeys(s.snaps) {
		for _, e := range s.snaps[k] {
			out = append(out, e.ref)
		}
	}
	return out
}
