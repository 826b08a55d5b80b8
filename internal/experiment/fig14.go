package experiment

import (
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Fig14Run is one (state size, mode) cell of §8.7.2.
type Fig14Run struct {
	StateMB     int
	Partitioned bool
	Overhead    Overhead
	Delay95     float64
	Parts       int // destinations used (1 for Default)
}

// RunFig14 executes the §8.7.2 state-partitioning experiment: the stage's
// state size is varied over {0, 32, 64, 128, 256, 512} MB and migrated at
// t=180 s either to the single best destination (Default) or — whenever
// the estimated transition exceeds the 30 s threshold — scaled out across
// enough destinations that each partition's transfer fits the threshold
// (Partitioned), transferring |state|/p′ per link in parallel.
func RunFig14(seed int64) ([]Fig14Run, error) {
	const (
		adaptAt   = 180 * time.Second
		runFor    = 900 * time.Second
		threshold = 3.0
		tMax      = 30 * time.Second
		maxParts  = 4
	)
	sizes := []int{0, 32, 64, 128, 256, 512}
	type cell struct {
		partitioned bool
		sizeMB      int
	}
	var cells []cell
	for _, partitioned := range []bool{false, true} {
		for _, sizeMB := range sizes {
			cells = append(cells, cell{partitioned: partitioned, sizeMB: sizeMB})
		}
	}
	return sweep(cells, func(c cell) (Fig14Run, error) {
		partitioned, sizeMB := c.partitioned, c.sizeMB
		b, err := newMigBench(seed, float64(sizeMB)*1e6)
		if err != nil {
			return Fig14Run{}, err
		}
		if err := b.runUntil(adaptAt); err != nil {
			return Fig14Run{}, err
		}
		now := b.sched.Now()
		dests := b.candidateDests(now)
		if len(dests) == 0 {
			return Fig14Run{}, fmt.Errorf("fig14: no feasible destination")
		}
		cur := b.eng.Plan().Stages[b.stageOp].Sites[0]

		parts := 1
		if partitioned && sizeMB > 0 {
			// Grow the partition count until each partition's transfer
			// over its own link fits within t_max (or we run out of
			// destinations / hit the parallelism cap).
			for parts < maxParts && parts < len(dests) {
				worst := time.Duration(0)
				per := float64(sizeMB) * 1e6 / float64(parts)
				for _, d := range dests[:parts] {
					t := b.net.EstimateTransferTime(cur, d, per, now)
					if t > worst {
						worst = t
					}
				}
				if worst <= tMax {
					break
				}
				parts++
			}
		}
		chosen := append([]topology.SiteID(nil), dests[:parts]...)
		doneAt, err := b.moveStage(chosen, float64(sizeMB)*1e6/float64(parts))
		if err != nil {
			return Fig14Run{}, err
		}
		if err := b.runUntil(runFor); err != nil {
			return Fig14Run{}, err
		}
		done := *doneAt
		if done == 0 {
			done = vclock.Time(adaptAt) // zero-byte move completes next tick
		}
		overhead := measureOverhead(b.samples, vclock.Time(adaptAt), done, threshold)
		window := Window(b.samples, vclock.Time(adaptAt), vclock.Time(runFor))
		return Fig14Run{
			StateMB:     sizeMB,
			Partitioned: partitioned,
			Overhead:    overhead,
			Delay95:     Percentile(window, 0.95),
			Parts:       parts,
		}, nil
	})
}

// FormatFig14 renders the 95th-percentile delay and overhead breakdown
// versus state size for Default and Partitioned migration.
func FormatFig14(runs []Fig14Run) string {
	out := "Figure 14: mitigating overhead through operator scaling and state partitioning (t_max = 30 s)\n"
	out += "\nFigure 14(a): 95th-percentile delay (s) vs state size\n"
	header := []string{"mode", "0MB", "32MB", "64MB", "128MB", "256MB", "512MB"}
	row := func(part bool, f func(Fig14Run) string) []string {
		name := "Default"
		if part {
			name = "Partitioned"
		}
		out := []string{name}
		for _, size := range []int{0, 32, 64, 128, 256, 512} {
			for _, r := range runs {
				if r.Partitioned == part && r.StateMB == size {
					out = append(out, f(r))
				}
			}
		}
		return out
	}
	var rows [][]string
	rows = append(rows, row(false, func(r Fig14Run) string { return Fmt(r.Delay95) }))
	rows = append(rows, row(true, func(r Fig14Run) string { return Fmt(r.Delay95) }))
	out += Table(header, rows)

	out += "\nFigure 14(b): adaptation overhead (s), transition+stabilize\n"
	rows = nil
	rows = append(rows, row(false, func(r Fig14Run) string {
		return fmt.Sprintf("%s+%s", Fmt(r.Overhead.Transition.Seconds()), Fmt(r.Overhead.Stabilize.Seconds()))
	}))
	rows = append(rows, row(true, func(r Fig14Run) string {
		return fmt.Sprintf("%s+%s", Fmt(r.Overhead.Transition.Seconds()), Fmt(r.Overhead.Stabilize.Seconds()))
	}))
	out += Table(header, rows)

	out += "\nPartition counts used (Partitioned): "
	for _, size := range []int{0, 32, 64, 128, 256, 512} {
		for _, r := range runs {
			if r.Partitioned && r.StateMB == size {
				out += fmt.Sprintf("%dMB:%d ", size, r.Parts)
			}
		}
	}
	out += "\n"
	return out
}
