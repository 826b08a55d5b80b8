package main

import (
	"flag"
	"fmt"
	"strings"

	"github.com/wasp-stream/wasp/internal/obs"
)

// lane is one row of the ASCII gantt: a label, the event names it tracks,
// and the mark it paints.
type lane struct {
	label string
	names map[string]byte // event name → mark
}

// timelineLanes maps the run's events onto gantt rows, most interesting
// last so faults and violations sit next to the time axis.
var timelineLanes = []lane{
	{"rounds", map[string]byte{"controller.round": '|'}},
	{"actions", map[string]byte{"action": 'A'}},
	{"adapt", map[string]byte{"adapt.abort": 'x', "adapt.retry": 'r', "adapt.rollback": 'R'}},
	{"recovery", map[string]byte{"recovery.detected": 'd', "recovery.complete": 'C', "recovery.degraded": 'g'}},
	{"ctrl", map[string]byte{
		"ctrl.command": 'c', "ctrl.command_acked": 'a', "ctrl.command_retry": 't',
		"ctrl.command_timeout": 'T', "ctrl.command_fenced": 'e', "ctrl.command_failed": 'X',
		"ctrl.quarantine": 'Q', "ctrl.readmit": 'q',
	}},
	{"faults", map[string]byte{
		"fault.site_crash": 'F', "fault.site_restore": 'h',
		"fault.inject": 'F', "fault.heal": 'h', "engine.fail": 'F',
	}},
	{"violations", map[string]byte{"chaos.violation": '!'}},
}

// detailNames are the events worth a line each in the chronology under
// the gantt.
var detailNames = map[string]bool{
	"action": true, "adapt.abort": true, "adapt.retry": true, "adapt.rollback": true,
	"recovery.detected": true, "recovery.complete": true, "recovery.degraded": true,
	"fault.site_crash": true, "fault.site_restore": true,
	"fault.inject": true, "fault.heal": true, "engine.fail": true,
	"chaos.violation": true, "engine.reconfigure_aborted": true, "engine.replan_aborted": true,
	"ctrl.quarantine": true, "ctrl.readmit": true, "ctrl.command_timeout": true,
	"ctrl.command_fenced": true, "ctrl.command_failed": true,
}

func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	width := fs.Int("width", 72, "gantt width in buckets")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o, _, err := load(fs)
	if err != nil {
		return err
	}
	renderGantt(o, *width)
	return nil
}

// renderGantt paints the run's spans and events into per-lane buckets.
func renderGantt(o *obs.Observer, width int) {
	width = max(width, 10)
	end := endOf(o)
	if end <= 0 {
		fmt.Println("timeline: empty run (no timestamped entries)")
		return
	}
	// Spans count as events at their start for lane marking, so the
	// rounds lane (controller.round spans) fills in.
	events := flatten(o, true)
	bucket := func(t float64) int { return min(max(int(t/end*float64(width)), 0), width-1) }

	fmt.Printf("timeline: %s .. %s (%d buckets of %s)\n\n",
		fmtSeconds(0), fmtSeconds(end), width, fmtSeconds(end/float64(width)))

	labelW := 0
	for _, l := range timelineLanes {
		labelW = max(labelW, len(l.label))
	}
	for _, l := range timelineLanes {
		row := []byte(strings.Repeat(".", width))
		n := 0
		for _, ev := range events {
			mark, ok := l.names[ev.Name]
			if !ok {
				continue
			}
			n++
			b := bucket(ev.At.Seconds())
			// Later (more severe, by lane map construction) marks win; a
			// bucket already holding a mark keeps the first one except
			// that lowercase yields to uppercase.
			if row[b] == '.' || (row[b] >= 'a' && row[b] <= 'z' && mark >= 'A' && mark <= 'Z') {
				row[b] = mark
			}
		}
		fmt.Printf("%-*s  %s  (%d)\n", labelW, l.label, row, n)
	}
	fmt.Printf("%-*s  %s^\n", labelW, "", strings.Repeat(" ", width-1))
	fmt.Printf("%-*s  0%s%s\n\n", labelW, "", strings.Repeat(" ", width-len(fmtSeconds(end))), fmtSeconds(end))
	fmt.Println("marks: | round  A action  x abort  r retry  R rollback  d crash-detected")
	fmt.Println("       C recovery-complete  g degraded  F fault  f slow  h heal  ! violation")
	fmt.Println("       c command  a ack  t resend  T timeout  e fenced  X failed  Q quarantine  q readmit")

	// Chronology of the notable events.
	var rows [][]string
	for _, ev := range events {
		if !detailNames[ev.Name] {
			continue
		}
		rows = append(rows, []string{fmtSeconds(ev.At.Seconds()), ev.Name, attrString(ev)})
	}
	fmt.Println()
	if len(rows) > 0 {
		fmt.Print(table([]string{"t", "event", "detail"}, rows))
	} else {
		fmt.Println("no actions, faults, or violations recorded")
	}
}

// fmtSeconds renders a virtual timestamp compactly.
func fmtSeconds(s float64) string {
	return fmtFloat(s) + "s"
}

// flightTrend is the width of a flight column's sparkline.
const flightTrend = 36

// cmdFlight renders the artifact's flight recording: per-column
// min/mean/max/last plus an ASCII sparkline over the retained window.
func cmdFlight(args []string) error {
	fs := flag.NewFlagSet("flight", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, f, err := load(fs)
	if err != nil {
		return err
	}
	if f == nil {
		return fmt.Errorf("flight: %s holds no flight recording (the run had no -flight)", fs.Arg(0))
	}
	t, names, vals := f.Window()
	fmt.Printf("flight: %s — capacity %d, %d rows recorded, %d retained\n",
		fs.Arg(0), f.Capacity(), f.Recorded(), len(t))
	if len(t) == 0 {
		return nil
	}
	fmt.Printf("window: %s .. %s\n\n", fmtSeconds(t[0].Seconds()), fmtSeconds(t[len(t)-1].Seconds()))

	var out [][]string
	for ci, col := range names {
		vs := vals[ci]
		mn, mx, sum := vs[0], vs[0], 0.0
		for _, v := range vs {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
			sum += v
		}
		out = append(out, []string{
			col, fmtFloat(mn), fmtFloat(sum / float64(len(vs))), fmtFloat(mx),
			fmtFloat(vs[len(vs)-1]), sparkline(vs, mn, mx, flightTrend),
		})
	}
	fmt.Print(table([]string{"column", "min", "mean", "max", "last", "trend"}, out))
	return nil
}

// sparkLevels are the intensity glyphs of a sparkline, low to high.
const sparkLevels = " .:-=+*#"

// sparkline compresses a series into w glyphs, scaled to [mn, mx].
func sparkline(vals []float64, mn, mx float64, w int) string {
	w = min(max(w, 8), len(vals))
	out := make([]byte, w)
	span := mx - mn
	per := float64(len(vals)) / float64(w)
	for i := 0; i < w; i++ {
		hi := min(int(float64(i+1)*per), len(vals))
		lo := min(int(float64(i)*per), hi-1)
		var bucketMax float64
		for _, v := range vals[lo:hi] {
			if v > bucketMax {
				bucketMax = v
			}
		}
		if span <= 0 {
			out[i] = sparkLevels[0]
			continue
		}
		level := int((bucketMax - mn) / span * float64(len(sparkLevels)-1))
		out[i] = sparkLevels[min(max(level, 0), len(sparkLevels)-1)]
	}
	return "[" + string(out) + "]"
}
