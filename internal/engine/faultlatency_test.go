package engine

import (
	"math"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// TestLinkSlowShiftsDeliveryLatency is the regression test for the stale
// flow-latency bug: flows once sampled net.Latency at creation, so a
// linkslow fault (or its heal) left existing flows delivering at the
// original latency forever; delivery now reads the link's current
// latency. The 0→1 link (base 40 ms) is degraded to 25% mid-run, which inflates its
// effective latency 4× (to 160 ms); sink delivery delays must shift up by
// roughly the added 120 ms while the fault holds and return to baseline
// after the heal.
func TestLinkSlowShiftsDeliveryLatency(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 1000)

	r.run(t, 20*time.Second)
	base := meanDelayAfter(r.eng.TakeDeliveries(), vclock.Time(10*time.Second))
	if math.IsNaN(base) {
		t.Fatal("no baseline deliveries")
	}

	r.net.SetLinkFault(0, 1, 0.25)
	r.run(t, 40*time.Second)
	slowed := meanDelayAfter(r.eng.TakeDeliveries(), vclock.Time(30*time.Second))

	r.net.ClearLinkFault(0, 1)
	r.run(t, 60*time.Second)
	healed := meanDelayAfter(r.eng.TakeDeliveries(), vclock.Time(50*time.Second))

	// The latency inflation is 3×40 ms = 120 ms; allow slack for tick
	// quantization but insist on a clearly visible shift.
	if slowed-base < 0.08 {
		t.Fatalf("degraded link did not slow deliveries: base %.3fs, slowed %.3fs", base, slowed)
	}
	if math.Abs(healed-base) > 0.04 {
		t.Fatalf("healed link did not restore baseline: base %.3fs, healed %.3fs", base, healed)
	}
}
