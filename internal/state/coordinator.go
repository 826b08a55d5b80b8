package state

import (
	"fmt"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/topology"
)

// Target is one stateful task the coordinator checkpoints.
type Target struct {
	Job      string
	Operator string
	Task     int
	// Site is where the task currently runs; snapshots are stored there
	// (localized checkpointing, §5).
	Site topology.SiteID
	// Replicas lists additional sites the snapshot is copied to in the
	// same round. Localized checkpointing alone cannot survive the loss
	// of the task's own site — a replica on an independent site is what
	// lets recovery restore from a checkpoint not hosted on the failed
	// site. Empty means strictly local (§5 default).
	Replicas []topology.SiteID
	// Snapshot captures the task's current state.
	Snapshot func() ([]byte, error)
}

// Coordinator snapshots registered targets into a Store, one round per
// Checkpoint call — WASP's Checkpoint Coordinator. The recovery manager
// owns the checkpoint cadence and calls Checkpoint on it. Targets can be
// re-registered when tasks move between sites. The zero value is not
// usable; use NewCoordinator. Not safe for concurrent use (the simulation
// is single-threaded).
type Coordinator struct {
	store   *Store
	targets map[string]*Target
	epoch   int64
	onError func(error)
}

// NewCoordinator creates a coordinator over store. onError observes
// snapshot failures (nil means they are silently skipped for that round).
func NewCoordinator(store *Store, onError func(error)) *Coordinator {
	return &Coordinator{
		store:   store,
		targets: make(map[string]*Target),
		onError: onError,
	}
}

// Register adds (or replaces, keyed by job/operator/task) a checkpoint
// target.
func (c *Coordinator) Register(t Target) {
	key := Ref{Job: t.Job, Operator: t.Operator, Task: t.Task}.taskKey()
	cp := t
	c.targets[key] = &cp
}

// Unregister removes a target; its existing checkpoints remain stored.
func (c *Coordinator) Unregister(job, operator string, task int) {
	delete(c.targets, Ref{Job: job, Operator: operator, Task: task}.taskKey())
}

// Targets returns the number of registered targets.
func (c *Coordinator) Targets() int { return len(c.targets) }

// Epoch returns the last completed checkpoint round.
func (c *Coordinator) Epoch() int64 { return c.epoch }

// Checkpoint runs one checkpoint round immediately, snapshotting every
// registered target into the store at its current site (plus any replica
// sites). Targets are visited in sorted key order: map iteration order
// must never leak into onError/Store.Put ordering, or same-seed runs
// stop being byte-identical.
func (c *Coordinator) Checkpoint() {
	c.epoch++
	for _, key := range detutil.SortedKeys(c.targets) {
		t := c.targets[key]
		data, err := t.Snapshot()
		if err != nil {
			if c.onError != nil {
				c.onError(fmt.Errorf("checkpoint %s epoch %d: %w", key, c.epoch, err))
			}
			continue
		}
		sites := []topology.SiteID{t.Site}
		for _, r := range t.Replicas {
			dup := false
			for _, s := range sites {
				dup = dup || s == r
			}
			if !dup {
				sites = append(sites, r)
			}
		}
		for _, site := range sites {
			ref := Ref{Job: t.Job, Operator: t.Operator, Task: t.Task, Epoch: c.epoch, Site: site}
			if err := c.store.Put(ref, data); err != nil && c.onError != nil {
				c.onError(err)
			}
		}
	}
}
