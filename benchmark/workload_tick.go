package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/wasp-stream/wasp/internal/chaos"
	"github.com/wasp-stream/wasp/internal/experiment"
)

// Work-list sizes per second of --seconds, fixed here and never calibrated at
// run time, so that a parent commit and a change do identical work. They were
// sized on the seed commit (2 cores, go1.24) to make the timed region last
// about --seconds.
const (
	paper16CellsPerSecond   = 25.0
	scaleCellsPerSecond     = 7.5
	ctrlChaosCellsPerSecond = 80.0
)

// tick is the engine's default simulation step.
const tick = 250 * time.Millisecond

// tickWorkload is a list of experiment.Scenario cells run one after another;
// its op is the engine tick.
type tickWorkload struct {
	name  string
	cells []experiment.Scenario
	// fullInvariants judges every chaos invariant at run end. The other
	// tick workloads may end mid-adaptation by design and are held to
	// conservation only.
	fullInvariants bool
	// tracedCells is how many cells the traced run measures.
	tracedCells int
}

func setupPaper16(seed int64, seconds float64) (instance, error) {
	// Whole rounds of the six (query, script) strata keep the mix fixed.
	n := 6 * max(1, int(math.Round(seconds*paper16CellsPerSecond/6)))
	w := &tickWorkload{name: "paper16_dynamics", tracedCells: 12}
	for i := 0; i < n; i++ {
		sc, err := paper16Cell(seed, i)
		if err != nil {
			return nil, err
		}
		w.cells = append(w.cells, sc)
	}
	return w, nil
}

func setupScale1000(seed int64, seconds float64) (instance, error) {
	n := max(2, int(math.Round(seconds*scaleCellsPerSecond)))
	w := &tickWorkload{name: "scale1000_surge", tracedCells: 10}
	for t := 0; len(w.cells) < n; t++ {
		in, err := genScaleInput(seed, t)
		if err != nil {
			return nil, err
		}
		for k := 0; k < scaleOnsets && len(w.cells) < n; k++ {
			sc := scaleCell(in, t, k)
			if k == 0 {
				ok, err := plannable(&sc)
				if err != nil || !ok {
					return nil, fmt.Errorf("%s: generated topology not plannable: %v", sc.Name, err)
				}
			}
			w.cells = append(w.cells, sc)
		}
	}
	return w, nil
}

func setupCtrlChaos(seed int64, seconds float64) (instance, error) {
	n := max(2, int(math.Round(seconds*ctrlChaosCellsPerSecond)))
	w := &tickWorkload{name: "ctrl_chaos", fullInvariants: true, tracedCells: 20}
	for i := 0; i < n; i++ {
		sc, err := ctrlChaosCell(seed, i)
		if err != nil {
			return nil, err
		}
		w.cells = append(w.cells, sc)
	}
	return w, nil
}

// violations judges a finished cell's run-end state.
func (w *tickWorkload) violations(final *chaos.RunStats) []chaos.Violation {
	if w.fullInvariants {
		return chaos.Check(*final, experiment.ChaosRecoveryBound)
	}
	return chaos.Check(chaos.RunStats{Conservation: final.Conservation}, 0)
}

// cellRow is one line of the deterministic results table, with the run-end
// invariants the cell broke.
func (w *tickWorkload) cellRow(sc *experiment.Scenario, res *experiment.Result) (string, []string) {
	var broken []string
	for _, v := range w.violations(res.Final) {
		broken = append(broken, v.Invariant)
	}
	return fmt.Sprintf("%s ticks=%d actions=%d processed=%.9g delay_p50=%.9g delay_p95=%.9g violations=[%s]",
		sc.Name, res.Ticks, len(res.Actions), res.ProcessedPct,
		res.DelayPercentile(0.50), res.DelayPercentile(0.95), strings.Join(broken, ",")), broken
}

func (w *tickWorkload) measure(m *meter, share float64) *outcome {
	out := newOutcome()
	n := max(1, int(share*float64(len(w.cells))))
	for i := range w.cells[:n] {
		sc := &w.cells[i]
		out.fullOps += int64(sc.Duration / tick)
		if m.expired() {
			continue
		}
		var res *experiment.Result
		m.start()
		err := guard(func() (err error) {
			res, err = experiment.Run(*sc)
			return err
		})
		m.stop()
		out.attempted++
		if err != nil {
			out.failf("%s (seed %d): %v", sc.Name, sc.Seed, err)
			out.rowf("%s error", sc.Name)
			continue
		}
		out.ops += res.Ticks
		row, broken := w.cellRow(sc, res)
		out.rows = append(out.rows, row)
		for _, inv := range broken {
			out.violations[inv] = append(out.violations[inv], fmt.Sprintf("%s(seed %d)", sc.Name, sc.Seed))
		}
	}
	return out
}
