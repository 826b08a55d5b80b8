package chaos

import (
	"reflect"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

func TestGenerateIsDeterministic(t *testing.T) {
	cfg := Config{Sites: 8, Duration: 900 * time.Second}
	for seed := int64(1); seed <= 20; seed++ {
		a := Generate(seed, cfg)
		b := Generate(seed, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ:\n%v\n%v", seed, a, b)
		}
	}
	if reflect.DeepEqual(Generate(1, cfg), Generate(2, cfg)) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateSchedulesAreCoherent(t *testing.T) {
	d := 900 * time.Second
	cfg := Config{Sites: 8, Duration: d}
	for seed := int64(1); seed <= 50; seed++ {
		fs := Generate(seed, cfg)
		if len(fs) < 1 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		if err := faults.ValidateSchedule(fs); err != nil {
			t.Fatalf("seed %d: generated schedule incoherent: %v", seed, err)
		}
		for i, f := range fs {
			if err := f.Validate(); err != nil {
				t.Fatalf("seed %d fault %d: %v", seed, i, err)
			}
			if f.At < d/10 || f.At > d/2 {
				t.Fatalf("seed %d fault %d strikes at %v, want within [%v, %v]", seed, i, f.At, d/10, d/2)
			}
			if f.For <= 0 {
				t.Fatalf("seed %d fault %d is permanent; every chaos fault must heal", seed, i)
			}
			if heal := f.At + f.For; heal > 3*d/4 {
				t.Fatalf("seed %d fault %d heals at %v, after the %v deadline", seed, i, heal, 3*d/4)
			}
			if f.Kind == faults.SiteCrash || f.Kind == faults.SiteSlow {
				if int(f.Site) < 0 || int(f.Site) >= cfg.Sites {
					t.Fatalf("seed %d fault %d victim site %d outside topology", seed, i, f.Site)
				}
			} else if f.From == f.To {
				t.Fatalf("seed %d fault %d is a self-link", seed, i)
			}
		}
	}
}

func TestGenerateRespectsSizeBounds(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		fs := Generate(seed, Config{Sites: 8, Duration: 900 * time.Second})
		if len(fs) < minFaults || len(fs) > maxFaults {
			t.Fatalf("seed %d: got %d faults, want %d..%d", seed, len(fs), minFaults, maxFaults)
		}
	}
	// A 2-site topology offers few distinct targets; the attempt budget
	// must still terminate, possibly short of minFaults.
	small := Generate(7, Config{Sites: 2, Duration: 900 * time.Second})
	if err := faults.ValidateSchedule(small); err != nil {
		t.Fatalf("dense config produced incoherent schedule: %v", err)
	}
}

// FuzzGenerateRoundTrips: for any seed, topology size in [2, 1000],
// duration in [1 s, 48 h] and control-plane region count in [0, 8], every
// generated fault passes Fault.Validate, the schedule passes
// faults.ValidateSchedule, and each fault's String form parses back to
// exactly that fault — so a generated schedule can always be replayed as a
// -fault script.
func FuzzGenerateRoundTrips(f *testing.F) {
	f.Add(int64(1), uint16(8), uint32(900), uint8(0))
	f.Add(int64(7), uint16(0), uint32(0), uint8(3))
	f.Add(int64(42), uint16(998), uint32(48*3600-1), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, sites uint16, secs uint32, regions uint8) {
		cfg := Config{
			Sites:       2 + int(sites)%999,
			Duration:    time.Duration(1+secs%(48*3600)) * time.Second,
			CtrlRegions: int(regions) % 9,
		}
		fs := Generate(seed, cfg)
		for i, fault := range fs {
			if err := fault.Validate(); err != nil {
				t.Fatalf("%+v: fault %d invalid: %v", cfg, i, err)
			}
			got, err := faults.Parse(fault.String())
			if err != nil || !reflect.DeepEqual(got, []faults.Fault{fault}) {
				t.Fatalf("%+v: fault %d %q parses to %v, %v", cfg, i, fault.String(), got, err)
			}
		}
		if err := faults.ValidateSchedule(fs); err != nil {
			t.Fatalf("%+v: schedule incoherent: %v", cfg, err)
		}
	})
}

// cleanStats is a run-end state with every invariant satisfied.
func cleanStats() RunStats {
	return RunStats{
		Conservation: engine.Conservation{
			Generated: 1e6, Delivered: 9e5, Dropped: 1e5,
		},
		MaxRecovery: 30 * time.Second,
	}
}

func TestCheckPassesCleanRun(t *testing.T) {
	if vs := Check(cleanStats(), 600*time.Second); len(vs) != 0 {
		t.Fatalf("clean run flagged: %v", vs)
	}
}

func TestCheckCatchesEachViolation(t *testing.T) {
	cases := []struct {
		invariant string
		mutate    func(*RunStats)
	}{
		{"conservation", func(s *RunStats) { s.Conservation.Delivered -= 1000 }},
		{"no-suspended-stages", func(s *RunStats) { s.SuspendedOps = []plan.OpID{1} }},
		{"no-pending-adaptation", func(s *RunStats) { s.PendingReconfigs = 1 }},
		{"no-pending-adaptation", func(s *RunStats) { s.Replanning = true }},
		{"no-orphan-transfers", func(s *RunStats) { s.ActiveTransfers = 2 }},
		{"all-sites-healed", func(s *RunStats) { s.DownSites = []topology.SiteID{3} }},
		{"recovery-bound", func(s *RunStats) { s.MaxRecovery = 700 * time.Second }},
	}
	for _, tc := range cases {
		s := cleanStats()
		tc.mutate(&s)
		vs := Check(s, 600*time.Second)
		if len(vs) != 1 {
			t.Errorf("%s: got %d violations (%v), want 1", tc.invariant, len(vs), vs)
			continue
		}
		if vs[0].Invariant != tc.invariant {
			t.Errorf("got invariant %q, want %q", vs[0].Invariant, tc.invariant)
		}
		if vs[0].Detail == "" || vs[0].String() == "" {
			t.Errorf("%s: violation carries no detail", tc.invariant)
		}
	}
	// Bound 0 disables the recovery check.
	s := cleanStats()
	s.MaxRecovery = time.Hour
	if vs := Check(s, 0); len(vs) != 0 {
		t.Fatalf("recovery-bound enforced with bound 0: %v", vs)
	}
}

func TestCheckReportsViolationsInFixedOrder(t *testing.T) {
	s := cleanStats()
	s.SuspendedOps = []plan.OpID{2}
	s.ActiveTransfers = 1
	s.DownSites = []topology.SiteID{0}
	vs := Check(s, 600*time.Second)
	want := []string{"no-suspended-stages", "no-orphan-transfers", "all-sites-healed"}
	if len(vs) != len(want) {
		t.Fatalf("got %d violations (%v), want %d", len(vs), vs, len(want))
	}
	for i, w := range want {
		if vs[i].Invariant != w {
			t.Fatalf("violation %d = %q, want %q (order must be stable for byte-identical output)", i, vs[i].Invariant, w)
		}
	}
}
