package adapt

import (
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// TestDecisionTraceAllocs holds tracing one decision inside a round — its
// span with three attributes, one rejected branch and the acted flag — to
// 1 allocation: the span. The rejects counter's series key is built in the
// registry's buffer, and every attribute list and event list lives in the
// observer's blocks; none is built on the heap.
func TestDecisionTraceAllocs(t *testing.T) {
	now := vclock.Time(0)
	c := &Controller{obs: obs.New(func() vclock.Time { return now })}
	round := c.obs.StartSpan("controller.round")
	defer round.Finish()
	avg := testing.AllocsPerRun(1000, func() {
		now += vclock.Time(time.Second)
		c.beginDecision(3, "compute-constrained",
			obs.Bool("stateful", true), obs.Bool("splittable", true), obs.F64("lambda_in_hat", 1.5))
		c.reject("re-assign", "no placement found at current parallelism", obs.Int("op", 3))
		c.endDecision(true)
	})
	if avg > 1 {
		t.Errorf("a traced decision allocates %.3f objects, want at most 1", avg)
	}
	var last *obs.Span
	c.obs.Walk(func(_ *obs.Event, sp *obs.Span) { last = sp })
	if last.Name != "decision" || len(last.Attrs) != 6 || last.Attrs[0].Key != "op" || last.Attrs[5].Key != "acted" ||
		len(last.Events) != 1 || last.Events[0].Name != "reject" {
		t.Fatalf("last decision span = %+v", last)
	}
}
