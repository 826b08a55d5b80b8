package obs

import (
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// AdaptPhases orders the phases of the §6.2 adaptation cycle in every
// report; one absent from a run is still listed, so reports align row for
// row. Each phase is an adapt.latency event (phase, kind, op, dur) and an
// observation in the per-phase wasp_adapt_latency_seconds histogram:
// EmitAdaptPhase writes both and AdaptLatency reads the events back.
var AdaptPhases = []string{"detect", "plan", "halt", "transfer", "resume"}

// adaptLatencyBuckets are the histogram's bounds in virtual seconds: the
// low end resolves sub-tick phases, the top a multi-minute backoff.
var adaptLatencyBuckets = []float64{0.25, 0.5, 1, 2, 5, 10, 20, 40, 80, 160, 320, 640}

// EmitAdaptPhase records one phase of an adaptation, lasting d (at least
// 0). kind names the mechanism ("reconfigure", "replan", or the
// controller's action); op is -1 for whole-plan operations.
func (o *Observer) EmitAdaptPhase(phase, kind string, op int, d vclock.Time) {
	if o == nil {
		return
	}
	d = max(d, 0)
	o.Emit("adapt.latency", String("phase", phase), String("kind", kind), Int("op", op), Dur("dur", time.Duration(d)))
	o.reg.Describe("wasp_adapt_latency_seconds", "Virtual-clock duration of one adaptation phase (detect/plan/halt/transfer/resume), by phase.")
	o.reg.Histogram("wasp_adapt_latency_seconds", adaptLatencyBuckets, "phase", phase).Observe(d.Seconds())
}

// AdaptLatency returns the recorded phase durations in seconds, in
// emission order, by phase and by "phase/kind"; an event without a phase
// is skipped, one without a kind counts by phase only.
func (o *Observer) AdaptLatency() (byPhase, byKind map[string][]float64) {
	byPhase, byKind = map[string][]float64{}, map[string][]float64{}
	for _, ev := range o.Events("adapt.latency") {
		phase, kind := ev.Get("phase").Str(), ev.Get("kind").Str()
		if phase == "" {
			continue
		}
		d, _ := ev.Get("dur").Num()
		byPhase[phase] = append(byPhase[phase], d)
		if kind != "" {
			byKind[phase+"/"+kind] = append(byKind[phase+"/"+kind], d)
		}
	}
	return byPhase, byKind
}

// Quantiles returns the qs-quantiles of samples from one sorted copy,
// interpolating linearly between ranks: q ≤ 0 is the minimum, q ≥ 1 the
// maximum, and every quantile of an empty set 0.
func Quantiles(samples []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	last := len(s) - 1
	for i, q := range qs {
		switch pos := q * float64(last); {
		case q <= 0:
			out[i] = s[0]
		case q >= 1 || int(pos) >= last:
			out[i] = s[last]
		default:
			lo := int(pos)
			out[i] = s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
		}
	}
	return out
}
