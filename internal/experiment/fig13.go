package experiment

import (
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// MigrationStrategy selects how the migrating task's destination is
// chosen (the §8.7.1 comparison arms).
type MigrationStrategy int

// Migration strategies.
const (
	// MigrateNetworkAware picks the highest-bandwidth feasible
	// destination — WASP's §5 mapping.
	MigrateNetworkAware MigrationStrategy = iota + 1
	// MigrateRandom picks a destination ignoring bandwidth.
	MigrateRandom
	// MigrateDistant deliberately picks the slowest link (worst case).
	MigrateDistant
	// MigrateNone skips state transfer entirely (accuracy loss; the "No
	// Migrate" baseline).
	MigrateNone
)

// Fig13Run is one migration-strategy arm of §8.7.1.
type Fig13Run struct {
	Strategy MigrationStrategy
	Overhead Overhead
	// Peak95 is the 95th-percentile delay during the adaptation window.
	Peak95 float64
	// Samples for the delay-over-time panel.
	Samples []WeightedDelay
}

// strategyName names a migration strategy for reports.
func strategyName(s MigrationStrategy) string {
	switch s {
	case MigrateNone:
		return "No Migrate"
	case MigrateNetworkAware:
		return "WASP"
	case MigrateRandom:
		return "Random"
	case MigrateDistant:
		return "Distant"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// RunFig13 executes the §8.7.1 network-aware state-migration experiment:
// a stateful stage with 60 MB of state is migrated off its site at
// t=180 s; the destination is chosen by each strategy (No Migrate skips
// the transfer — losing state accuracy; WASP picks the highest-bandwidth
// feasible destination; Random ignores bandwidth; Distant picks the
// slowest feasible link). Every destination can sustain the stream, so
// all arms eventually stabilize.
func RunFig13(seed int64) ([]Fig13Run, error) {
	const (
		stateBytes = 60e6
		adaptAt    = 180 * time.Second
		runFor     = 500 * time.Second
		threshold  = 3.0 // seconds: stabilization delay bound
	)
	strategies := []MigrationStrategy{
		MigrateNone, MigrateNetworkAware, MigrateRandom, MigrateDistant,
	}
	jobs := make([]func() (Fig13Run, error), len(strategies))
	for i, strat := range strategies {
		jobs[i] = func() (Fig13Run, error) {
			b, err := newMigBench(seed, stateBytes)
			if err != nil {
				return Fig13Run{}, err
			}
			if err := b.runUntil(adaptAt); err != nil {
				return Fig13Run{}, err
			}
			dests := b.candidateDests(b.sched.Now())
			if len(dests) == 0 {
				return Fig13Run{}, fmt.Errorf("fig13: no feasible destination")
			}
			dest := pickDest(dests, strat)
			bytes := stateBytes
			if strat == MigrateNone {
				bytes = 0
			}
			doneAt, err := b.moveStage([]topology.SiteID{dest}, bytes)
			if err != nil {
				return Fig13Run{}, err
			}
			if err := b.runUntil(runFor); err != nil {
				return Fig13Run{}, err
			}
			overhead := measureOverhead(b.samples, vclock.Time(adaptAt), *doneAt, threshold)
			window := Window(b.samples, vclock.Time(adaptAt), vclock.Time(runFor))
			return Fig13Run{
				Strategy: strat,
				Overhead: overhead,
				Peak95:   Percentile(window, 0.95),
				Samples:  b.samples,
			}, nil
		}
	}
	return runJobs(Parallelism(), jobs)
}

// pickDest selects the destination per strategy from candidates sorted by
// descending migration bandwidth.
func pickDest(dests []topology.SiteID, strat MigrationStrategy) topology.SiteID {
	switch strat {
	case MigrateDistant:
		return dests[len(dests)-1]
	case MigrateRandom:
		return dests[len(dests)/2] // bandwidth-agnostic deterministic pick
	default: // WASP network-aware and No Migrate (destination then moot)
		return dests[0]
	}
}

// FormatFig13 renders the delay-over-time and overhead-breakdown panels.
func FormatFig13(runs []Fig13Run) string {
	out := "Figure 13: network-aware state migration (60 MB state, adaptation at t=180 s)\n"
	out += "\nFigure 13(a): delay over time (s)\n"
	buckets := []time.Duration{120 * time.Second, 180 * time.Second, 240 * time.Second, 300 * time.Second, 360 * time.Second, 420 * time.Second, 480 * time.Second}
	header := []string{"strategy"}
	for i := 0; i+1 < len(buckets); i++ {
		header = append(header, fmt.Sprintf("[%d,%d)", int(buckets[i].Seconds()), int(buckets[i+1].Seconds())))
	}
	var rows [][]string
	for _, run := range runs {
		row := []string{strategyName(run.Strategy)}
		for i := 0; i+1 < len(buckets); i++ {
			row = append(row, Fmt(Mean(Window(run.Samples, vclock.Time(buckets[i]), vclock.Time(buckets[i+1])))))
		}
		rows = append(rows, row)
	}
	out += Table(header, rows)

	out += "\nFigure 13(b): adaptation overhead breakdown (s)\n"
	rows = nil
	for _, run := range runs {
		rows = append(rows, []string{
			strategyName(run.Strategy),
			Fmt(run.Overhead.Transition.Seconds()),
			Fmt(run.Overhead.Stabilize.Seconds()),
			Fmt(run.Overhead.Total().Seconds()),
			Fmt(run.Peak95),
		})
	}
	out += Table([]string{"strategy", "transition", "stabilize", "total", "p95 delay"}, rows)
	out += "No Migrate redirects streams without moving state (accuracy loss).\n"
	return out
}
