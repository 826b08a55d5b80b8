// Package chaos generates randomized fault schedules and checks run-end
// invariants — the harness that proves the adaptation runtime tolerates
// faults landing at arbitrary points, including mid-reconfiguration. A
// seed fully determines the schedule (explicit rand.Source, never the
// global generator), so every chaos scenario is replayable byte-for-byte.
package chaos

import (
	"math/rand"
	"time"

	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/topology"
)

// Config bounds the generated schedule.
type Config struct {
	// Sites is the topology size; victims are drawn from [0, Sites).
	Sites int
	// Duration is the run length. Faults strike in [D/10, D/2] and heal by
	// 3D/4, leaving the final quarter for recovery to settle — chaos tests
	// that the system *recovers*, which needs a post-fault window.
	Duration time.Duration
	// CtrlRegions, when positive, widens the kind draw with the three
	// control-plane faults (ctrldown over [0, CtrlRegions), telemloss,
	// ctrldelay). Zero keeps the draw sequence — and therefore every
	// existing schedule — byte-identical to before the control plane
	// existed.
	CtrlRegions int
}

// minFaults and maxFaults bound the schedule size.
const minFaults, maxFaults = 3, 6

// Generate builds a randomized, validated fault schedule from the seed.
// Candidates violating schedule coherence (overlapping faults on one
// site/link, see faults.ValidateSchedule) are redrawn; the attempt budget
// makes termination unconditional, so dense configs may come up short of
// minFaults. Every generated fault heals, so a correct runtime ends the
// run fully recovered.
func Generate(seed int64, cfg Config) []faults.Fault {
	rng := rand.New(rand.NewSource(seed))
	want := minFaults + rng.Intn(maxFaults-minFaults+1)
	var out []faults.Fault
	for attempts := 0; len(out) < want && attempts < 10*want; attempts++ {
		f := randomFault(rng, cfg)
		if faults.ValidateSchedule(append(append([]faults.Fault(nil), out...), f)) != nil {
			continue
		}
		out = append(out, f)
	}
	return out
}

// randomFault draws one candidate fault. Times are truncated to whole
// seconds and factors to two decimals so rendered schedules stay short
// and byte-stable.
func randomFault(rng *rand.Rand, cfg Config) faults.Fault {
	d := cfg.Duration
	at := d/10 + time.Duration(rng.Int63n(int64(d/2-d/10)+1))
	at = at.Truncate(time.Second)
	forMin, forMax := d/20, d/4
	if healBy := 3*d/4 - at; forMax > healBy {
		forMax = healBy
	}
	if forMin > forMax {
		forMin = forMax
	}
	dur := forMin
	if forMax > forMin {
		dur += time.Duration(rng.Int63n(int64(forMax - forMin)))
	}
	dur = dur.Truncate(time.Second)
	if dur <= 0 {
		dur = time.Second
	}

	f := faults.Fault{At: at, For: dur}
	kinds := 4
	if cfg.CtrlRegions > 0 {
		kinds = 7
	}
	switch rng.Intn(kinds) {
	case 0:
		f.Kind = faults.SiteCrash
		f.Site = topology.SiteID(rng.Intn(cfg.Sites))
	case 1:
		f.Kind = faults.SiteSlow
		f.Site = topology.SiteID(rng.Intn(cfg.Sites))
		f.Factor = randomFactor(rng)
	case 2:
		f.Kind = faults.LinkDown
		f.From, f.To = randomLink(rng, cfg.Sites)
	case 3:
		f.Kind = faults.LinkSlow
		f.From, f.To = randomLink(rng, cfg.Sites)
		f.Factor = randomFactor(rng)
	case 4:
		f.Kind = faults.CtrlDown
		f.Region = rng.Intn(cfg.CtrlRegions)
	case 5:
		f.Kind = faults.TelemLoss
		f.Rate = randomFactor(rng)
	case 6:
		f.Kind = faults.CtrlDelay
		f.Delay = time.Duration(1+rng.Intn(5)) * time.Second
	}
	return f
}

// randomFactor draws a degradation factor in [0.2, 0.8], two decimals.
func randomFactor(rng *rand.Rand) float64 {
	return float64(20+rng.Intn(61)) / 100
}

// randomLink draws a directed link between two distinct sites.
func randomLink(rng *rand.Rand, sites int) (topology.SiteID, topology.SiteID) {
	from := rng.Intn(sites)
	to := rng.Intn(sites - 1)
	if to >= from {
		to++
	}
	return topology.SiteID(from), topology.SiteID(to)
}
