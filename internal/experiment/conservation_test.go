package experiment

import (
	"fmt"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/trace"
)

// knownConservationDefect lists the Fig-8 runs that end with a residual
// above Conservation.Eps(): a reconfiguration's finalizing tick drops a
// cohort whose event count is below the queue's absolute epsilon but whose
// source-equivalent worth is not (YSB's per-node σ = 0.004 shrinks counts
// by that factor at every level of the combine tree). The engine fix
// deletes this table.
var knownConservationDefect = map[fig8Cell]bool{
	{"ysb", adapt.PolicyWASP, 2}:  true,
	{"ysb", adapt.PolicyWASP, 6}:  true,
	{"ysb", adapt.PolicyWASP, 7}:  true,
	{"ysb", adapt.PolicyWASP, 8}:  true,
	{"ysb", adapt.PolicyWASP, 11}: true,
}

type fig8Cell struct {
	query  string
	policy adapt.Policy
	seed   int64
}

// TestFig8ConservationAtRunEnd runs the §8.4 script for seeds 1–12, every
// query, with and without adaptation, and requires the source-equivalent
// balance to hold at run end — except on exactly the runs in
// knownConservationDefect, which must still break: a run that starts
// holding has to leave the table.
func TestFig8ConservationAtRunEnd(t *testing.T) {
	const duration = 1500 * time.Second
	for _, qname := range []string{"ysb", "topk", "eoi"} {
		builder, err := QueryByName(qname)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []adapt.Policy{adapt.PolicyWASP, adapt.PolicyNone} {
			for seed := int64(1); seed <= 12; seed++ {
				cell := fig8Cell{qname, policy, seed}
				name := fmt.Sprintf("%s/%s/%d", qname, policy, seed)
				res, err := Run(Scenario{
					Name:      name,
					Seed:      seed,
					Duration:  duration,
					Query:     builder,
					Engine:    EngineConfig(policy),
					Adapt:     AdaptConfig(policy),
					Workload:  trace.Steps(duration/5, 1, 2, 1, 1, 1),
					Bandwidth: trace.Steps(duration/5, 1, 1, 1, 0.5, 1),
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				c := res.Final.Conservation
				switch {
				case !c.Holds() && !knownConservationDefect[cell]:
					t.Errorf("%s: conservation broken: residual %.0f source events, eps %.0f", name, c.Residual(), c.Eps())
				case c.Holds() && knownConservationDefect[cell]:
					t.Errorf("%s: conservation holds (residual %.0f); remove it from knownConservationDefect", name, c.Residual())
				case !c.Holds():
					t.Logf("%s: known defect, residual %.0f source events, eps %.0f", name, c.Residual(), c.Eps())
				}
			}
		}
	}
}
