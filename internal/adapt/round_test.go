package adapt

import (
	"slices"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// scaleRig deploys top-k over eight edge sources on a 1000-site
// GenerateScale planet, planned as the scale sweep plans it, with a
// controller that is not started: the caller runs its rounds.
func scaleRig(t testing.TB) (*Controller, *vclock.Scheduler) {
	t.Helper()
	top, err := topology.GenerateScale(topology.DefaultScaleConfig(1, 50, 19))
	if err != nil {
		t.Fatal(err)
	}
	q := queries.TopKTopics(queries.Config{
		SourceSites:   top.SitesOfKind(topology.Edge)[:8],
		SinkSite:      top.SitesOfKind(topology.DataCenter)[0],
		RatePerSource: 100,
	})
	best, _, err := physical.PlanQuery(q.Graph, q.Spec, top, physical.PlannerConfig{
		ScheduleConfig: physical.ScheduleConfig{Alpha: 0.8, DefaultParallelism: 1},
		MaxVariants:    12,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	eng := engine.New(engine.Config{}, top, net, sched)
	if err := eng.Deploy(best.Plan); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	ctl := NewController(Config{PMax: 4}, eng, top, net, sched,
		&ReplanSpec{Base: q.Graph, Spec: q.Spec, Current: best.Variant, MaxVariants: 12})
	return ctl, sched
}

// TestControllerRoundAllocs holds a warm round of a healthy deployment,
// every operator diagnosed and none acted on, to what it records: its
// span, plus the observer blocks its attributes and events land in,
// which amortise below one allocation a round. The plane's snapshot, the
// belief with its free slots, λ̂ and surveys, the rate factor's source
// walk, the operator labels of the telemetry series and the round span's
// event list all reuse storage the plane, the controller, the engine or
// the observer already holds.
func TestControllerRoundAllocs(t *testing.T) {
	rigs := []struct {
		name  string
		build func(t *testing.T) (*Controller, *vclock.Scheduler)
	}{
		{"testbed", func(t *testing.T) (*Controller, *vclock.Scheduler) {
			tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 1000, 1, 1e6)
			tb.ctl.Stop()
			return tb.ctl, tb.sched
		}},
		{"scale 1000 sites", func(t *testing.T) (*Controller, *vclock.Scheduler) { return scaleRig(t) }},
	}
	for _, rig := range rigs {
		t.Run(rig.name, func(t *testing.T) {
			ctl, sched := rig.build(t)
			warmRounds(t, ctl, sched)
			avg := testing.AllocsPerRun(100, func() { ctl.Round(sched.Now()) })
			if avg > 1 {
				t.Errorf("a healthy round allocates %.3f objects, want at most 1 (its span)", avg)
			}
			if acts := ctl.Actions(); len(acts) != 0 {
				t.Fatalf("the rig is not healthy: actions %v", acts)
			}
			var last *obs.Span
			ctl.Observer().Walk(func(_ *obs.Event, sp *obs.Span) {
				if sp != nil && sp.Name == "controller.round" {
					last = sp
				}
			})
			diagnosed := 0
			for _, ev := range last.Events {
				if ev.Name != "diagnose" || ev.Get("cond").Str() != "healthy" {
					t.Fatalf("last round recorded %s %v; want only healthy diagnoses", ev.Name, ev.Attrs)
				}
				diagnosed++
			}
			if diagnosed == 0 {
				t.Fatal("last round diagnosed nothing")
			}
		})
	}
}

// warmRounds runs the deployment for 200 s with a round every 20 s.
func warmRounds(t testing.TB, ctl *Controller, sched *vclock.Scheduler) {
	t.Helper()
	for at := 20 * time.Second; at <= 200*time.Second; at += 20 * time.Second {
		if err := sched.RunUntil(vclock.Time(at)); err != nil {
			t.Fatal(err)
		}
		ctl.Round(sched.Now())
	}
}

// BenchmarkControllerRound times one warm, healthy round of the 1000-site
// rig: the plane's snapshot, the telemetry export, observe, diagnosis of
// every operator and the round's trace.
func BenchmarkControllerRound(b *testing.B) {
	ctl, sched := scaleRig(b)
	warmRounds(b, ctl, sched)
	b.ReportAllocs()
	for b.Loop() {
		ctl.Round(sched.Now())
	}
}

// TestSecondObserveReadsTheActuation: the controller keeps one belief,
// and a step that observes again after acting reads the runtime as it is
// after the act — the free slots after a site crash, the down sites and
// the reconfiguration survey after a Reconfigure — not what the first
// observe left in the reused buffers.
func TestSecondObserveReadsTheActuation(t *testing.T) {
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 1000, 1, 60e6)
	tb.ctl.Stop()
	tb.run(t, 60*time.Second)
	snap := tb.ctl.plane.Snapshot(tb.sched.Now())

	b := tb.ctl.observe(snap)
	free, down, reconfigs := slices.Clone(b.free), slices.Clone(b.down), slices.Clone(b.reconfigs)
	if len(down) != 0 || len(reconfigs) != 0 || free[3] == 0 {
		t.Fatalf("rig: first belief free %v down %v reconfigs %v", free, down, reconfigs)
	}
	mp := tb.ids[1]
	if err := tb.eng.Reconfigure(mp, sites(2), []engine.Migration{{FromSite: 1, ToSite: 2, Bytes: 60e6}}, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.CrashSite(3)

	b2 := tb.ctl.observe(snap)
	wantFree := tb.eng.FreeSlots()
	tb.ctl.plane.MaskUnreachable(wantFree, tb.sched.Now())
	if !slices.Equal(b2.free, wantFree) || slices.Equal(b2.free, free) {
		t.Errorf("second observe: free %v, want %v (first read %v)", b2.free, wantFree, free)
	}
	if !slices.Equal(b2.down, []topology.SiteID{3}) {
		t.Errorf("second observe: down %v, want [3]", b2.down)
	}
	if len(b2.reconfigs) != 1 || b2.reconfigs[0].Op != mp || !b2.reconfiguring(mp) {
		t.Errorf("second observe: reconfigs %v, want the map's pending move", b2.reconfigs)
	}
	if len(b2.lambdaIn) != tb.eng.Plan().Graph.Len() {
		t.Errorf("second observe: λ̂I has %d rates, want one per operator", len(b2.lambdaIn))
	}
}
