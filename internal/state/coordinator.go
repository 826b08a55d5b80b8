package state

import (
	"fmt"
	"slices"
	"strings"

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
	// Snapshot captures the task's current state. The coordinator keeps
	// the returned slice as the round's stored copy, shared by the
	// primary and replica entries, so each call must return memory the
	// target does not write to again.
	Snapshot func() ([]byte, error)
}

// target is a registered Target with what each round needs precomputed:
// its "job/operator/task" name and the sites one snapshot goes to (Site
// first, then the distinct other replicas).
type target struct {
	Target
	name  string
	sites []topology.SiteID
}

// Coordinator snapshots registered targets into a Store, one round per
// Checkpoint call — WASP's Checkpoint Coordinator. The recovery manager
// owns the checkpoint cadence and calls Checkpoint on it. Targets can be
// re-registered when tasks move between sites. The zero value is not
// usable; use NewCoordinator. Not safe for concurrent use (the simulation
// is single-threaded).
type Coordinator struct {
	store *Store
	// targets is the registry, ascending by name: the order a round visits
	// them in. Register and Unregister find a target by binary search and
	// keep the order, so rounds never re-sort.
	targets []*target
	epoch   int64
	onError func(error)
}

// NewCoordinator creates a coordinator over store. onError observes
// snapshot failures (nil means they are silently skipped for that round).
func NewCoordinator(store *Store, onError func(error)) *Coordinator {
	return &Coordinator{store: store, onError: onError}
}

// Register adds (or replaces, keyed by job/operator/task) a checkpoint
// target.
func (c *Coordinator) Register(t Target) {
	sites := []topology.SiteID{t.Site}
	for _, r := range t.Replicas {
		if !slices.Contains(sites, r) {
			sites = append(sites, r)
		}
	}
	nt := &target{Target: t, name: taskKey{t.Job, t.Operator, t.Task}.String(), sites: sites}
	i, found := slices.BinarySearchFunc(c.targets, nt.name, byName)
	if found {
		c.targets[i] = nt
		return
	}
	c.targets = slices.Insert(c.targets, i, nt)
}

// Unregister removes a target; its existing checkpoints remain stored.
func (c *Coordinator) Unregister(job, operator string, task int) {
	name := taskKey{job, operator, task}.String()
	if i, found := slices.BinarySearchFunc(c.targets, name, byName); found {
		c.targets = slices.Delete(c.targets, i, i+1)
	}
}

func byName(t *target, name string) int { return strings.Compare(t.name, name) }

// Targets returns the number of registered targets.
func (c *Coordinator) Targets() int { return len(c.targets) }

// Epoch returns the last completed checkpoint round.
func (c *Coordinator) Epoch() int64 { return c.epoch }

// Checkpoint runs one checkpoint round immediately, snapshotting every
// registered target into the store at its current site (plus any replica
// sites). Targets are visited in ascending "job/operator/task" order, so
// onError and Store.Put calls keep one order and same-seed runs stay
// byte-identical.
func (c *Coordinator) Checkpoint() {
	c.epoch++
	for _, t := range c.targets {
		data, err := t.Snapshot()
		if err != nil {
			if c.onError != nil {
				c.onError(fmt.Errorf("checkpoint %s epoch %d: %w", t.name, c.epoch, err))
			}
			continue
		}
		for _, site := range t.sites {
			ref := Ref{Job: t.Job, Operator: t.Operator, Task: t.Task, Epoch: c.epoch, Site: site}
			if err := c.store.put(ref, data); err != nil && c.onError != nil {
				c.onError(err)
			}
		}
	}
}
