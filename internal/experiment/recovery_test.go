package experiment

import (
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

func TestRunRecoverySweep(t *testing.T) {
	runs, err := RunRecovery(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 5 {
		t.Fatalf("runs = %d", len(runs))
	}
	byInterval := make(map[time.Duration]RecoveryRun)
	for _, r := range runs {
		byInterval[r.CheckpointEvery] = r
		if !r.Recovered {
			t.Errorf("ckpt=%v: site crash was not recovered by re-assignment", r.CheckpointEvery)
		}
		if r.Degraded {
			t.Errorf("ckpt=%v: degradation engaged although placements existed", r.CheckpointEvery)
		}
		if r.Lost <= 0 {
			t.Errorf("ckpt=%v: crash recorded no loss", r.CheckpointEvery)
		}
		if r.NetLost < -1e-9 {
			t.Errorf("ckpt=%v: restored more than was lost (net %v)", r.CheckpointEvery, r.NetLost)
		}
	}
	// The no-checkpoint arm restores nothing; checkpointed arms claw state
	// back, so their net loss is strictly smaller.
	none := byInterval[0]
	if none.Restored != 0 {
		t.Fatalf("no-checkpoint arm restored %v", none.Restored)
	}
	ck10 := byInterval[10*time.Second]
	if ck10.Restored <= 0 {
		t.Fatalf("10s-checkpoint arm restored nothing (lost %v)", ck10.Lost)
	}
	if ck10.NetLost >= none.NetLost {
		t.Fatalf("checkpointing did not reduce loss: net %v (ckpt 10s) vs %v (none)",
			ck10.NetLost, none.NetLost)
	}
	// Every checkpointed arm bounds its loss below the restart-empty arm
	// (the state-loss bound: at most one interval of state evaporates).
	for iv, r := range byInterval {
		if iv == 0 {
			continue
		}
		if r.NetLost > none.NetLost+1e-9 {
			t.Errorf("ckpt=%v lost more than the no-checkpoint arm: %v vs %v",
				iv, r.NetLost, none.NetLost)
		}
	}
	if FormatRecovery(runs) == "" {
		t.Fatal("empty report")
	}
}

// runFaulted executes one fixed scenario with injected faults (site crash
// with restart, a link blackout, a site straggler) plus checkpoint-driven
// recovery, under a shared observer, and returns its JSONL record.
func runFaulted(t *testing.T) (string, *Result) {
	t.Helper()
	o := obs.New(func() vclock.Time { return 0 })
	sc := Scenario{
		Name:            "fault-det",
		Seed:            5,
		Duration:        700 * time.Second,
		Engine:          EngineConfig(adapt.PolicyWASP),
		Adapt:           AdaptConfig(adapt.PolicyWASP),
		CheckpointEvery: 30 * time.Second,
		Faults: []faults.Fault{
			{Kind: faults.LinkSlow, At: 100 * time.Second, For: 150 * time.Second, From: 0, To: 1, Factor: 0.5},
			{Kind: faults.SiteSlow, At: 150 * time.Second, For: 100 * time.Second, Site: 2, Factor: 0.5},
		},
		FaultsFor: func(pp *physical.Plan, top *topology.Topology) []faults.Fault {
			return []faults.Fault{{
				Kind: faults.SiteCrash, At: 300 * time.Second, For: 200 * time.Second,
				Site: crashTargetSite(pp),
			}}
		},
		Obs: o,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.Obs.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.String(), res
}

// TestFaultInjectionObsDeterministic is the acceptance check for the fault
// path: two same-seed runs with injected faults and checkpoint-driven
// recovery export byte-identical JSONL, and the timeline records the
// faults, the checkpoints, and the recovery.
func TestFaultInjectionObsDeterministic(t *testing.T) {
	a, res := runFaulted(t)
	b, _ := runFaulted(t)
	if a != b {
		t.Fatal("same-seed fault runs produced different JSONL records")
	}
	for _, want := range []string{
		`"name":"fault.inject"`,
		`"name":"fault.heal"`,
		`"name":"fault.site_crash"`,
		`"name":"fault.site_restore"`,
		`"name":"fault.link"`,
		`"name":"checkpoint.round"`,
		`"name":"recovery.complete"`,
	} {
		if !strings.Contains(a, want) {
			t.Errorf("timeline missing %s", want)
		}
	}
	if !slices.Contains(res.Actions, adapt.ActionRecover) {
		t.Fatal("no recover action under injected site crash")
	}
	if res.Restored <= 0 {
		t.Fatal("checkpointed run restored no state")
	}
}
