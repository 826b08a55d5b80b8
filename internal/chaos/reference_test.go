package chaos

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/topology"
)

// The schedule generator as it was written over math/rand: the reference
// Generate, which draws from a detutil.Source, is held to fault for fault.

// refGenerate is Generate over math/rand's generator.
func refGenerate(seed int64, cfg Config) []faults.Fault {
	rng := rand.New(rand.NewSource(seed))
	want := minFaults + rng.Intn(maxFaults-minFaults+1)
	var out []faults.Fault
	for attempts := 0; len(out) < want && attempts < 10*want; attempts++ {
		f := refRandomFault(rng, cfg)
		if faults.ValidateSchedule(append(append([]faults.Fault(nil), out...), f)) != nil {
			continue
		}
		out = append(out, f)
	}
	return out
}

// refRandomFault is randomFault over math/rand.
func refRandomFault(rng *rand.Rand, cfg Config) faults.Fault {
	d := cfg.Duration
	g := grain(d)
	at := d/10 + time.Duration(rng.Int63n(int64(d/2-d/10)+1))
	at = at.Truncate(g)
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
	dur = dur.Truncate(g)
	if dur <= 0 {
		dur = g
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
		f.Factor = refRandomFactor(rng)
	case 2:
		f.Kind = faults.LinkDown
		f.From, f.To = refRandomLink(rng, cfg.Sites)
	case 3:
		f.Kind = faults.LinkSlow
		f.From, f.To = refRandomLink(rng, cfg.Sites)
		f.Factor = refRandomFactor(rng)
	case 4:
		f.Kind = faults.CtrlDown
		f.Region = rng.Intn(cfg.CtrlRegions)
	case 5:
		f.Kind = faults.TelemLoss
		f.Rate = refRandomFactor(rng)
	case 6:
		f.Kind = faults.CtrlDelay
		f.Delay = time.Duration(1+rng.Intn(5)) * time.Second
	}
	return f
}

// refRandomFactor is randomFactor over math/rand.
func refRandomFactor(rng *rand.Rand) float64 {
	return float64(20+rng.Intn(61)) / 100
}

// refRandomLink is randomLink over math/rand.
func refRandomLink(rng *rand.Rand, sites int) (topology.SiteID, topology.SiteID) {
	from := rng.Intn(sites)
	to := rng.Intn(sites - 1)
	if to >= from {
		to++
	}
	return topology.SiteID(from), topology.SiteID(to)
}

// TestGenerateMatchesMathRandReference holds Generate to the generator
// over math/rand on every fault field, at the seeds math/rand's seeding
// treats specially and the seeds the chaos sweeps use, on the smallest and
// the 1000-site topology, at durations from one second to two days, with
// and without the control-plane kinds.
func TestGenerateMatchesMathRandReference(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, 3, 7, 42, math.MaxInt32, math.MinInt64, math.MaxInt64}
	for _, seed := range seeds {
		for _, sites := range []int{2, 8, 16, 1000} {
			for _, d := range []time.Duration{time.Second, 25 * time.Second, 900 * time.Second, 48 * time.Hour} {
				for _, regions := range []int{0, 3} {
					cfg := Config{Sites: sites, Duration: d, CtrlRegions: regions}
					got, want := Generate(seed, cfg), refGenerate(seed, cfg)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %+v:\n got %v\nwant %v", seed, cfg, got, want)
					}
				}
			}
		}
	}
}
