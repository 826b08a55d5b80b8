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
	"slices"
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

// Store is an in-memory, site-aware checkpoint store. It keeps, per task,
// only the newest copy at each site: those are the only copies
// LatestExcluding can return, since an older copy at a site is excluded
// whenever the newer one beside it is. A round that skips a site leaves
// that site's older copy in place, so a task's copies may span epochs.
// Store is safe for concurrent use.
type Store struct {
	mu sync.Mutex
	// snaps maps task key → its copies, at most one per site, in the
	// order they were put (so epochs never decrease along a slice).
	snaps map[taskKey][]entry
	// spare holds buffers of dropped copies that no kept copy shares,
	// for Spare to hand back; at most one per task key.
	spare [][]byte
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
// round to the task's own site and to replica sites). The copy replaces
// the task's older copy at the same site.
func (s *Store) Put(ref Ref, data []byte) error {
	return s.PutOwned(ref, append(s.Spare(), data...))
}

// PutOwned is Put taking ownership of data: the store keeps the slice
// itself, so the caller must not write to it again. A checkpoint round
// stores one snapshot at the task's site and at its replica this way; data
// may be shared only between copies of the same task. A replaced copy
// whose bytes no kept copy shares becomes a spare buffer.
func (s *Store) PutOwned(ref Ref, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := ref.taskKey()
	es := s.snaps[key]
	at := -1
	for i := range es {
		if es[i].ref.Site == ref.Site {
			at = i
			break
		}
	}
	if n := len(es); n > 0 && ref.Epoch < es[n-1].ref.Epoch {
		return fmt.Errorf("state: epoch %d not after %d for %s", ref.Epoch, es[n-1].ref.Epoch, key)
	}
	if at >= 0 && es[at].ref.Epoch == ref.Epoch {
		return fmt.Errorf("state: duplicate epoch %d at site %d for %s", ref.Epoch, ref.Site, key)
	}
	ref.Size = int64(len(data))
	if at < 0 {
		s.snaps[key] = append(es, entry{ref: ref, data: data})
		return nil
	}
	old := es[at].data
	copy(es[at:], es[at+1:])
	es[len(es)-1] = entry{ref: ref, data: data}
	for _, e := range es {
		if sameBytes(e.data, old) {
			return nil
		}
	}
	if cap(old) > 0 && len(s.spare) < len(s.snaps) {
		s.spare = append(s.spare, old[:0])
	}
	return nil
}

// sameBytes reports whether a and b start at the same byte of memory.
func sameBytes(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// Spare returns an empty buffer whose bytes no stored copy holds any
// longer, for the caller to fill and hand to PutOwned, or nil when there
// is none.
func (s *Store) Spare() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.spare)
	if n == 0 {
		return nil
	}
	buf := s.spare[n-1]
	s.spare[n-1] = nil
	s.spare = s.spare[:n-1]
	return buf
}

// LatestExcluding returns the most recent snapshot for a task that is
// NOT stored at any of the excluded sites (with none excluded, the most
// recent snapshot). Recovery after a site crash excludes the dead site,
// whose bytes are gone with it. ok=false means every surviving copy (if
// any) was on an excluded site — the task's state is lost and it must
// restart empty. The returned bytes are the caller's own.
func (s *Store) LatestExcluding(job, operator string, task int, excluded ...topology.SiteID) (Ref, []byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := Ref{Job: job, Operator: operator, Task: task}.taskKey()
	es := s.snaps[key]
	for i := len(es) - 1; i >= 0; i-- {
		if !slices.Contains(excluded, es[i].ref.Site) {
			return es[i].ref, slices.Clone(es[i].data), true
		}
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
