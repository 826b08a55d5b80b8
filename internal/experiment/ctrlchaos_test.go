package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/chaos"
	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

func TestRunCtrlChaosHoldsInvariants(t *testing.T) {
	res, err := RunCtrlChaos(1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 9 {
		t.Fatalf("cells = %d, want 9", len(res.Cells))
	}
	for _, c := range res.Cells {
		for _, v := range c.Violations {
			t.Errorf("loss=%v part=%v: %s", c.LossRate, c.PartitionFor, v)
		}
		if c.ProcessedPct <= 0 {
			t.Errorf("loss=%v part=%v processed nothing", c.LossRate, c.PartitionFor)
		}
		// Long partitions must exceed PartitionAfter and round-trip the
		// quarantine ladder: enter it and get re-admitted after heal.
		if c.PartitionFor >= 120*time.Second {
			if c.QuarantineLat <= 0 {
				t.Errorf("loss=%v part=%v: region %d never quarantined", c.LossRate, c.PartitionFor, c.Region)
			}
			if c.ReadmitLat <= 0 {
				t.Errorf("loss=%v part=%v: region %d never re-admitted", c.LossRate, c.PartitionFor, c.Region)
			}
		}
	}
	for _, r := range res.Runs {
		for _, v := range r.Violations {
			t.Errorf("seed %d under %q: %s", r.Seed, FaultScript(r.Faults), v)
		}
	}
}

func TestRunCtrlChaosByteIdentical(t *testing.T) {
	a, err := RunCtrlChaos(5, 3, 600*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtrlChaos(5, 3, 600*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := FormatCtrlChaos(a), FormatCtrlChaos(b); fa != fb {
		t.Fatalf("same seeds rendered differently:\n%s\nvs\n%s", fa, fb)
	}
	old := Parallelism()
	SetParallelism(1)
	defer SetParallelism(old)
	c, err := RunCtrlChaos(5, 3, 600*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if FormatCtrlChaos(a) != FormatCtrlChaos(c) {
		t.Fatal("ctrlchaos output depends on worker-pool width")
	}
}

// TestCtrlPartitionAcceptance is the headline robustness scenario: 50%
// telemetry loss plus a 120 s control partition of one region. The
// staleness gate and quarantine must keep the controller from issuing a
// single command into the dark region for the whole partition, the
// region must be quarantined and re-admitted, and goodput must degrade
// gracefully rather than collapse.
func TestCtrlPartitionAcceptance(t *testing.T) {
	const partFor = 120 * time.Second
	region := -1
	var regionSites []topology.SiteID
	res, err := Run(Scenario{
		Name:            "ctrl-partition-acceptance",
		Seed:            1,
		Duration:        900 * time.Second,
		Engine:          EngineConfig(adapt.PolicyWASP),
		Adapt:           AdaptConfig(adapt.PolicyWASP),
		CheckpointEvery: 30 * time.Second,
		Ctrl:            &ctrlplane.Config{},
		FaultsFor: func(pp *physical.Plan, top *topology.Topology) []faults.Fault {
			region = victimRegion(top)
			regionSites = ctrlplane.Domains(top, ctrlplane.Config{})[region]
			return []faults.Fault{
				{Kind: faults.TelemLoss, At: 60 * time.Second, For: 600 * time.Second, Rate: 0.5},
				{Kind: faults.CtrlDown, At: ctrlPartitionAt, For: partFor, Region: region},
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	onset := vclock.Time(ctrlPartitionAt)
	heal := onset + vclock.Time(partFor)

	if n := commandsInRegion(res.Obs, regionSites, onset, heal); n != 0 {
		t.Errorf("%d command(s) issued into partitioned region %d during the partition, want 0", n, region)
	}
	quarantined := false
	for _, ev := range res.Obs.Events("ctrl.quarantine") {
		if int(ev.Get("region").Int64()) == region && ev.At > onset && ev.At <= heal {
			quarantined = true
		}
	}
	if !quarantined {
		t.Errorf("region %d was never quarantined during the partition", region)
	}
	readmitted := false
	for _, ev := range res.Obs.Events("ctrl.readmit") {
		if int(ev.Get("region").Int64()) == region && ev.At >= heal {
			readmitted = true
		}
	}
	if !readmitted {
		t.Errorf("region %d was never re-admitted after heal", region)
	}
	if len(res.Final.QuarantinedRegions) != 0 {
		t.Errorf("regions %v still quarantined at end of run", res.Final.QuarantinedRegions)
	}
	if res.Final.UnackedCommands != 0 {
		t.Errorf("%d command(s) unacked at end of run", res.Final.UnackedCommands)
	}
	// Graceful degradation, not collapse: the regression bound is set
	// from the observed value with headroom (the deterministic run gives
	// the same number every time; a real regression moves it by tens of
	// points, not fractions).
	if res.ProcessedPct < 80 {
		t.Errorf("ProcessedPct = %.1f, want >= 80 (goodput collapsed under control-plane degradation)", res.ProcessedPct)
	}
}

// commandsInRegion counts ctrl.command events issued in (from, to] whose
// target sites intersect the region's site set — the "actions aimed at a
// dark region" the staleness gate and quarantine exist to prevent.
func commandsInRegion(o *obs.Observer, region []topology.SiteID, from, to vclock.Time) int {
	inRegion := make(map[int]bool, len(region))
	for _, s := range region {
		inRegion[int(s)] = true
	}
	count := 0
	for _, ev := range o.Events("ctrl.command") {
		if ev.At <= from || ev.At > to {
			continue
		}
		// The sites attr is fmt.Sprint of a []SiteID: "[3 7 12]".
		for _, part := range strings.Fields(strings.Trim(ev.Get("sites").Str(), "[]")) {
			var s int
			if _, err := fmt.Sscanf(part, "%d", &s); err == nil && inRegion[s] {
				count++
				break
			}
		}
	}
	return count
}

// TestCtrlChaosCell306Settles replays the generated ctrl-chaos cell whose
// re-plan never finished: its carried maps, queued far over their
// backpressure bound, kept feeding the drain, so the drain neither
// completed nor stalled and the run ended with the sources suspended. A
// re-plan now holds what it carries, so the run must end settled.
func TestCtrlChaosCell306Settles(t *testing.T) {
	const cs = 1253619946
	const duration = 900 * time.Second
	top := topology.Generate(topology.DefaultGenConfig(cs))
	res, err := Run(Scenario{
		Name:            "ctrlchaos-306",
		Seed:            cs,
		Duration:        duration,
		Query:           queries.TopKTopics,
		RatePerSource:   10000,
		Topology:        top,
		Engine:          EngineConfig(adapt.PolicyWASP),
		Adapt:           AdaptConfig(adapt.PolicyWASP),
		SampleEvery:     20 * time.Second,
		MaxVariants:     40,
		CheckpointEvery: 30 * time.Second,
		Ctrl:            &ctrlplane.Config{},
		Faults: chaos.Generate(cs, chaos.Config{
			Sites:       top.N(),
			Duration:    duration,
			CtrlRegions: len(ctrlplane.Domains(top, ctrlplane.Config{})),
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := chaos.Check(*res.Final, ChaosRecoveryBound); len(v) != 0 {
		t.Fatalf("violations %v (replanning=%v, suspended %v)", v, res.Final.Replanning, res.Final.SuspendedOps)
	}
}
