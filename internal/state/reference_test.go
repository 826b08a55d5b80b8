package state

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"github.com/wasp-stream/wasp/internal/topology"
)

// refStore is the retain-all oracle: every copy ever put, in put order,
// each with bytes of its own. It is the checkpoint store as it was before
// puts replaced a task's older copy at the same site.
type refStore struct {
	snaps map[taskKey][]entry
}

func newRefStore() *refStore { return &refStore{snaps: make(map[taskKey][]entry)} }

func (s *refStore) Put(ref Ref, data []byte) error {
	key := ref.taskKey()
	es := s.snaps[key]
	if len(es) > 0 {
		last := es[len(es)-1].ref
		if ref.Epoch < last.Epoch {
			return fmt.Errorf("state: epoch %d not after %d for %s", ref.Epoch, last.Epoch, key)
		}
		for i := len(es) - 1; i >= 0 && es[i].ref.Epoch == ref.Epoch; i-- {
			if es[i].ref.Site == ref.Site {
				return fmt.Errorf("state: duplicate epoch %d at site %d for %s", ref.Epoch, ref.Site, key)
			}
		}
	}
	ref.Size = int64(len(data))
	s.snaps[key] = append(es, entry{ref: ref, data: bytes.Clone(data)})
	return nil
}

func (s *refStore) LatestExcluding(job, operator string, task int, excluded ...topology.SiteID) (Ref, []byte, bool) {
	es := s.snaps[Ref{Job: job, Operator: operator, Task: task}.taskKey()]
scan:
	for i := len(es) - 1; i >= 0; i-- {
		for _, x := range excluded {
			if es[i].ref.Site == x {
				continue scan
			}
		}
		return es[i].ref, bytes.Clone(es[i].data), true
	}
	return Ref{}, nil, false
}

// overlap reports whether the backing arrays of a and b, from each slice's
// start to its capacity, share a byte.
func overlap(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(&a[:1][0])), uintptr(unsafe.Pointer(&b[:1][0]))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}

// FuzzStoreMatchesRetainAll holds the store, which keeps a task's newest
// copy per site, to the retain-all refStore over checkpoint rounds read
// from the input: two tasks on one to four sites, epochs that never
// decrease (a repeated epoch included), rounds that skip sites, the
// copies of one round sharing bytes and written into a spare buffer when
// the store has one. After every put the two agree on the error, and on
// every LatestExcluding answer, ref and bytes, for every exclusion set;
// the store holds at most one copy per (task, site), at most one spare per
// task, and no spare shares a byte with a kept copy or with a copy
// LatestExcluding returned that round. Inputs past 64 rounds are cut.
func FuzzStoreMatchesRetainAll(f *testing.F) {
	f.Add([]byte{3, 0x03, 0, 8, 0x01, 0x02, 8, 0x03, 0x03, 8, 0x05, 0x02, 0, 0x11, 0x01, 5})
	f.Add([]byte{0, 0x01, 0, 4, 0x01, 0, 4, 0x03, 0, 12, 0x00, 0, 1})
	f.Add([]byte{2, 0x07, 1, 20, 0x06, 2, 20, 0x03, 0x01, 0, 0x0f, 0x04, 9, 0x02, 0x07, 30, 0x01, 0x05, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		sites := int(next())%4 + 1
		got, want := NewStore(), newRefStore()
		var returned [][]byte
		var epoch int64
		for round := 0; len(data) > 0 && round < 64; round++ {
			// op: bit 0 the task, bit 1 a new epoch, bit 2 a spare buffer.
			op, mask, size := next(), next(), int(next())%40
			task := int(op & 1)
			if op&2 != 0 {
				epoch++
			}
			var buf []byte
			if op&4 != 0 {
				buf = got.Spare()
				if len(buf) != 0 {
					t.Fatalf("round %d: spare buffer of length %d", round, len(buf))
				}
			}
			for i := range size {
				buf = append(buf, byte(epoch)^byte(i*7+task))
			}
			for k := range sites {
				// The round's first site rotates; bits of mask skip sites.
				site := topology.SiteID((k + round) % sites)
				if mask&(1<<site) == 0 {
					continue
				}
				ref := Ref{Job: "j", Operator: "op", Task: task, Epoch: epoch, Site: site}
				wantErr := want.Put(ref, buf)
				if gotErr := got.PutOwned(ref, buf); fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("round %d: put %+v = %v; want %v", round, ref, gotErr, wantErr)
				}
			}
			returned = returned[:0]
			for task := range 2 {
				for ex := range 1 << sites {
					var excluded []topology.SiteID
					for s := range sites {
						if ex&(1<<s) != 0 {
							excluded = append(excluded, topology.SiteID(s))
						}
					}
					gr, gd, gok := got.LatestExcluding("j", "op", task, excluded...)
					wr, wd, wok := want.LatestExcluding("j", "op", task, excluded...)
					if gr != wr || !bytes.Equal(gd, wd) || gok != wok {
						t.Fatalf("round %d: task %d excluding %v = (%+v, %v, %v); want (%+v, %v, %v)",
							round, task, excluded, gr, gd, gok, wr, wd, wok)
					}
					if gok {
						returned = append(returned, gd)
					}
				}
			}
			if len(got.spare) > len(got.snaps) {
				t.Fatalf("round %d: %d spares for %d tasks", round, len(got.spare), len(got.snaps))
			}
			for key, es := range got.snaps {
				seen := map[topology.SiteID]bool{}
				for _, e := range es {
					if seen[e.ref.Site] {
						t.Fatalf("round %d: two copies of %s at site %d", round, key, e.ref.Site)
					}
					seen[e.ref.Site] = true
					for _, sp := range got.spare {
						if overlap(sp, e.data) {
							t.Fatalf("round %d: a spare shares bytes with %+v", round, e.ref)
						}
					}
				}
			}
			for i, sp := range got.spare {
				for _, r := range returned {
					if overlap(sp, r) {
						t.Fatalf("round %d: spare %d shares bytes with a returned copy", round, i)
					}
				}
				for j := range i {
					if overlap(sp, got.spare[j]) {
						t.Fatalf("round %d: spares %d and %d share bytes", round, j, i)
					}
				}
			}
		}
	})
}
