package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/chaos"
	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// The ctrlchaos sweep degrades the control plane instead of the data
// plane: a grid of telemetry-loss rates crossed with control-partition
// durations measures how goodput, wrong actions (commands issued into a
// partitioned region) and quarantine/re-admission latency respond, and a
// randomized seed sweep throws mixed data+control fault schedules at the
// full policy and checks the run-end invariants — including the two
// control-plane ones (no region left quarantined after heal, no command
// left un-acked).

// ctrlPartitionAt places the control partition off the controller's 40 s
// monitoring grid, so the first impaired round sees evidence of a
// deterministic age rather than racing the fault application.
const ctrlPartitionAt = 210 * time.Second

// CtrlChaosCell is one grid point of the ctrlchaos sweep.
type CtrlChaosCell struct {
	// LossRate is the telemetry loss probability (0 disables the fault).
	LossRate float64
	// PartitionFor is the ctrldown duration over the victim region.
	PartitionFor time.Duration
	// Region is the partitioned quarantine domain.
	Region int
	// ProcessedPct is end-of-run goodput.
	ProcessedPct float64
	// Actions and WrongActions count completed adaptations and commands
	// issued at sites inside the partitioned region while it was down.
	Actions      int
	WrongActions int
	// QuarantineLat is partition onset → quarantine entry; ReadmitLat is
	// partition heal → re-admission (0 = the event never happened).
	QuarantineLat time.Duration
	ReadmitLat    time.Duration
	// Violations are the broken run-end invariants (empty = clean).
	Violations []chaos.Violation
}

// CtrlChaosResult bundles the deterministic grid with the randomized
// invariant sweep.
type CtrlChaosResult struct {
	Cells []CtrlChaosCell
	Runs  []ChaosRun
}

// RunCtrlChaos executes the control-plane degradation study. The grid
// uses one fixed seed (baseSeed) so cells differ only in the injected
// impairment; the invariant sweep uses seeds [baseSeed, baseSeed+n) with
// chaos schedules widened to include the control fault kinds. Both parts
// run on the experiment pool and return in submission order regardless of
// parallelism.
func RunCtrlChaos(baseSeed int64, n int, duration time.Duration) (CtrlChaosResult, error) {
	if n <= 0 {
		n = 8
	}
	if duration == 0 {
		duration = chaosDuration
	}
	losses := []float64{0, 0.25, 0.5}
	parts := []time.Duration{60 * time.Second, 120 * time.Second, 180 * time.Second}
	var jobs []func() (CtrlChaosCell, error)
	for _, loss := range losses {
		for _, part := range parts {
			loss, part := loss, part
			jobs = append(jobs, func() (CtrlChaosCell, error) {
				return runCtrlCell(baseSeed, duration, loss, part)
			})
		}
	}
	cells, err := runJobs(Parallelism(), jobs)
	if err != nil {
		return CtrlChaosResult{}, err
	}
	// The randomized half: chaos schedules widened with the control fault
	// kinds, judged by the full invariant set.
	runs, err := chaosSeeds("ctrlchaos", baseSeed, n, duration, true)
	if err != nil {
		return CtrlChaosResult{}, err
	}
	return CtrlChaosResult{Cells: cells, Runs: runs}, nil
}

// runCtrlCell executes one grid point: a fixed telemloss+ctrldown script
// against the full WASP policy over an impaired control plane.
func runCtrlCell(seed int64, duration time.Duration, loss float64, part time.Duration) (CtrlChaosCell, error) {
	region := -1
	res, err := Run(Scenario{
		Name:            fmt.Sprintf("ctrlchaos-loss%d-part%ds", int(loss*100), int(part.Seconds())),
		Seed:            seed,
		Duration:        duration,
		Engine:          EngineConfig(adapt.PolicyWASP),
		Adapt:           AdaptConfig(adapt.PolicyWASP),
		CheckpointEvery: 30 * time.Second,
		Ctrl:            &ctrlplane.Config{},
		FaultsFor: func(pp *physical.Plan, top *topology.Topology) []faults.Fault {
			region = victimRegion(top)
			fs := []faults.Fault{{
				Kind: faults.CtrlDown, At: ctrlPartitionAt, For: part, Region: region,
			}}
			if loss > 0 {
				fs = append(fs, faults.Fault{
					Kind: faults.TelemLoss, At: 60 * time.Second, For: 600 * time.Second, Rate: loss,
				})
			}
			return fs
		},
	})
	if err != nil {
		return CtrlChaosCell{}, err
	}
	cell := CtrlChaosCell{
		LossRate:     loss,
		PartitionFor: part,
		Region:       region,
		ProcessedPct: res.ProcessedPct,
		Actions:      len(res.Actions),
		WrongActions: res.Final.WrongActions,
		Violations:   chaos.Check(*res.Final, ChaosRecoveryBound),
	}
	onset := vclock.Time(ctrlPartitionAt)
	heal := onset + vclock.Time(part)
	for _, ev := range res.Obs.Events("ctrl.quarantine") {
		if int(ev.Get("region").Int64()) == region && ev.At >= onset {
			cell.QuarantineLat = time.Duration(ev.At - onset)
			break
		}
	}
	for _, ev := range res.Obs.Events("ctrl.readmit") {
		if int(ev.Get("region").Int64()) == region && ev.At >= heal {
			cell.ReadmitLat = time.Duration(ev.At - heal)
			break
		}
	}
	return cell, nil
}

// victimRegion picks the partition target: the first quarantine domain
// that does not host the controller (which co-locates with the sink DC),
// so the controller itself stays up while the region goes dark.
func victimRegion(top *topology.Topology) int {
	ctrl := top.SitesOfKind(topology.DataCenter)[0]
	for r, sites := range ctrlplane.Domains(top, ctrlplane.Config{}) {
		hosts := false
		for _, s := range sites {
			if s == ctrl {
				hosts = true
				break
			}
		}
		if !hosts {
			return r
		}
	}
	return 0
}

// FormatCtrlChaos renders the study byte-deterministically: the grid
// first, then the randomized invariant sweep in chaos-sweep format.
func FormatCtrlChaos(r CtrlChaosResult) string {
	var b strings.Builder
	b.WriteString("Control-plane chaos: telemetry loss x region partition vs the staleness-aware controller\n")
	var rows [][]string
	violated := 0
	for _, c := range r.Cells {
		verdict := "ok"
		if len(c.Violations) > 0 {
			verdict = fmt.Sprintf("%d violation(s)", len(c.Violations))
			violated++
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d%%", int(c.LossRate*100)),
			c.PartitionFor.String(),
			fmt.Sprint(c.Region),
			Fmt(c.ProcessedPct),
			fmt.Sprint(c.Actions),
			fmt.Sprint(c.WrongActions),
			latOrDash(c.QuarantineLat),
			latOrDash(c.ReadmitLat),
			verdict,
		})
	}
	b.WriteString(Table(
		[]string{"telem loss", "partition", "region", "processed %", "actions", "wrong", "quarantine lat", "readmit lat", "invariants"},
		rows))
	for _, c := range r.Cells {
		for _, v := range c.Violations {
			fmt.Fprintf(&b, "  FAIL loss=%d%% part=%s %s\n", int(c.LossRate*100), c.PartitionFor, v)
		}
	}
	if violated == 0 {
		fmt.Fprintf(&b, "\nall %d grid cells passed every invariant\n", len(r.Cells))
	}
	b.WriteString("\nRandomized mixed data+control fault schedules:\n")
	b.WriteString(FormatChaos(r.Runs))
	return b.String()
}

func latOrDash(d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return d.Round(100 * time.Millisecond).String()
}
