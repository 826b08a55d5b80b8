// Package state implements WASP's local state management (§5): a
// site-local checkpoint store (states are checkpointed to the site where
// the task runs, never over the WAN) and the key-hash partitioner used
// when state is split across scaled-out tasks. The checkpoint rounds that
// fill the store run in the recovery manager (internal/adapt), which
// snapshots every stateful task of the deployed plan.
package state

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"

	"github.com/wasp-stream/wasp/internal/topology"
)

// Ref identifies one checkpointed snapshot.
type Ref struct {
	// Job and Operator name the owning execution; Task is the task index
	// within the operator.
	Job      string
	Operator string
	Task     int
	// Epoch is the checkpoint round (monotonically increasing).
	Epoch int64
	// Site is where the snapshot is stored (the task's site — localized
	// checkpointing).
	Site topology.SiteID
	// Size is the snapshot payload size in bytes.
	Size int64
}

// taskKey identifies one task's checkpoint history.
type taskKey struct {
	job, operator string
	task          int
}

func (r Ref) taskKey() taskKey { return taskKey{r.Job, r.Operator, r.Task} }

// String is the "job/operator/task" form errors name a task by.
func (k taskKey) String() string {
	return k.job + "/" + k.operator + "/" + strconv.Itoa(k.task)
}

// Store is an in-memory, site-aware checkpoint store. It retains every
// epoch until pruned. Store is safe for concurrent use.
type Store struct {
	mu sync.Mutex
	// snaps maps task key → epoch-ascending snapshots.
	snaps map[taskKey][]entry
}

// entry is one stored copy. Copies of the same round at different sites
// may share data; nothing writes to it after the put.
type entry struct {
	ref  Ref
	data []byte
}

// NewStore returns an empty checkpoint store.
func NewStore() *Store {
	return &Store{snaps: make(map[taskKey][]entry)}
}

// Put stores a copy of a snapshot. Epochs for a task must be
// non-decreasing; a repeat of the current epoch is allowed only at a site
// that does not already hold it (checkpoint replication writes the same
// round to the task's own site and to replica sites).
func (s *Store) Put(ref Ref, data []byte) error {
	return s.PutOwned(ref, append([]byte(nil), data...))
}

// PutOwned is Put taking ownership of data: the store keeps the slice
// itself, so the caller must not write to it again. A checkpoint round
// stores one snapshot at the task's site and at its replica this way.
func (s *Store) PutOwned(ref Ref, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := ref.taskKey()
	es := s.snaps[key]
	if len(es) > 0 {
		last := es[len(es)-1].ref
		if ref.Epoch < last.Epoch {
			return fmt.Errorf("state: epoch %d not after %d for %s", ref.Epoch, last.Epoch, key)
		}
		if ref.Epoch == last.Epoch {
			for i := len(es) - 1; i >= 0 && es[i].ref.Epoch == ref.Epoch; i-- {
				if es[i].ref.Site == ref.Site {
					return fmt.Errorf("state: duplicate epoch %d at site %d for %s", ref.Epoch, ref.Site, key)
				}
			}
		}
	}
	ref.Size = int64(len(data))
	s.snaps[key] = append(es, entry{ref: ref, data: data})
	return nil
}

// LatestExcluding returns the most recent snapshot for a task that is
// NOT stored at any of the excluded sites (with none excluded, the most
// recent snapshot). Recovery after a site crash excludes the dead site,
// whose bytes are gone with it. ok=false means every surviving copy (if
// any) was on an excluded site — the task's state is lost and it must
// restart empty.
func (s *Store) LatestExcluding(job, operator string, task int, excluded ...topology.SiteID) (Ref, []byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := Ref{Job: job, Operator: operator, Task: task}.taskKey()
	es := s.snaps[key]
scan:
	for i := len(es) - 1; i >= 0; i-- {
		for _, x := range excluded {
			if es[i].ref.Site == x {
				continue scan
			}
		}
		out := make([]byte, len(es[i].data))
		copy(out, es[i].data)
		return es[i].ref, out, true
	}
	return Ref{}, nil, false
}

// Prune removes all snapshots for a task older than keepEpoch.
func (s *Store) Prune(job, operator string, task int, keepEpoch int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := Ref{Job: job, Operator: operator, Task: task}.taskKey()
	es := s.snaps[key]
	kept := es[:0]
	for _, e := range es {
		if e.ref.Epoch >= keepEpoch {
			kept = append(kept, e)
		}
	}
	if len(kept) == 0 {
		delete(s.snaps, key)
		return
	}
	s.snaps[key] = kept
}

// BytesAt reports the total checkpoint bytes stored at one site.
func (s *Store) BytesAt(site topology.SiteID) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, es := range s.snaps {
		for _, e := range es {
			if e.ref.Site == site {
				total += e.ref.Size
			}
		}
	}
	return total
}

// PartitionKey deterministically assigns a key to one of n partitions
// (FNV-1a hash mod n). Stream operators balance their keyed state across
// tasks with this function, and scale-out re-partitions state with it.
func PartitionKey(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}
