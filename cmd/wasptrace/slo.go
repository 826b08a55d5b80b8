package main

import (
	"flag"
	"fmt"
	"time"
)

func cmdSLO(args []string) error {
	fs := flag.NewFlagSet("slo", flag.ContinueOnError)
	ratioFloor := fs.Float64("slo-ratio", 0.95, "goodput-ratio floor per sample")
	budget := fs.Float64("budget", 0.05, "allowed fraction of samples below the floor")
	recoverySLO := fs.Duration("slo-recovery", 2*time.Minute, "recovery-time budget per failure")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("slo: want exactly one input file, got %d", fs.NArg())
	}
	entries, err := loadTimeline(fs.Arg(0))
	if err != nil {
		return err
	}
	events := flatten(entries)

	// Goodput SLO: fraction of goodput.sample events whose ratio dipped
	// below the floor, measured against the error budget.
	var samples, violating int
	var worst float64 = 1
	var worstAt float64
	for _, ev := range events {
		if ev.Name != "goodput.sample" {
			continue
		}
		samples++
		r := ev.num("ratio")
		if r < *ratioFloor {
			violating++
		}
		if r < worst {
			worst, worstAt = r, ev.T
		}
	}
	fmt.Printf("goodput SLO: ratio >= %s in >= %s of samples\n", fmtFloat(*ratioFloor), fmtPct(1-*budget))
	if samples == 0 {
		fmt.Println("  no goodput.sample events (run predates sampling or obs was off)")
	} else {
		frac := float64(violating) / float64(samples)
		burn := 0.0
		if *budget > 0 {
			burn = frac / *budget
		}
		fmt.Printf("  samples       %d\n", samples)
		fmt.Printf("  violating     %d (%s of samples, floor %s)\n", violating, fmtPct(frac), fmtFloat(*ratioFloor))
		fmt.Printf("  budget burn   %s of the %s budget\n", fmtPct(burn), fmtPct(*budget))
		fmt.Printf("  worst sample  ratio %s at t=%s\n", fmtFloat(worst), fmtSeconds(worstAt))
		if frac > *budget {
			fmt.Println("  verdict       VIOLATED")
		} else {
			fmt.Println("  verdict       ok")
		}
	}

	// Recovery SLO: every recovery.complete must land within the budget of
	// its own downtime measurement (the event carries the downtime).
	fmt.Printf("\nrecovery SLO: complete within %s of the crash\n", recoverySLO)
	var recoveries, late int
	var worstDown float64
	var worstDownAt float64
	for _, ev := range events {
		if ev.Name != "recovery.complete" {
			continue
		}
		recoveries++
		down := ev.num("recovery_time")
		if down > worstDown {
			worstDown, worstDownAt = down, ev.T
		}
		if down > recoverySLO.Seconds() {
			late++
		}
	}
	if recoveries == 0 {
		fmt.Println("  no recovery.complete events (no crashes, or none recovered)")
	} else {
		fmt.Printf("  recoveries    %d\n", recoveries)
		fmt.Printf("  over budget   %d\n", late)
		fmt.Printf("  worst         %s at t=%s (%s of budget)\n",
			fmtSeconds(worstDown), fmtSeconds(worstDownAt), fmtPct(worstDown/recoverySLO.Seconds()))
		if late > 0 {
			fmt.Println("  verdict       VIOLATED")
		} else {
			fmt.Println("  verdict       ok")
		}
	}

	// Chaos invariants piggyback on the report: any chaos.violation event
	// is an automatic SLO failure worth surfacing here.
	var violations int
	for _, ev := range events {
		if ev.Name == "chaos.violation" {
			violations++
		}
	}
	if violations > 0 {
		fmt.Printf("\nchaos: %d invariant violation(s) recorded — see `wasptrace timeline`\n", violations)
	}
	return nil
}

// fmtPct renders a fraction as a percentage: 0.0525 → "5.25%".
func fmtPct(f float64) string {
	return fmtFloat(f*100) + "%"
}
