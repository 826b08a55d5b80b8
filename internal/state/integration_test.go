package state_test

import (
	"reflect"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/state"
	"github.com/wasp-stream/wasp/internal/stream"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Integration: the checkpoint coordinator snapshots a live record-mode
// windowed operator every 30 s of virtual time; after a crash, a fresh operator
// restored from the latest local checkpoint resumes and produces exactly
// the results the original would have (events since the checkpoint are
// replayed — the paper's localized checkpoint/restore path, §5).
func TestCheckpointRestoreResumesWindowedAggregation(t *testing.T) {
	sched := vclock.NewScheduler(nil)
	store := state.NewStore()

	counter := stream.Count(10 * time.Second)
	coord := state.NewCoordinator(store, func(err error) { t.Fatal(err) })
	ticker := sched.Every(30*time.Second, func(vclock.Time) { coord.Checkpoint() })
	coord.Register(state.Target{
		Job: "q", Operator: "count", Task: 0, Site: 2,
		Snapshot: counter.SnapshotState,
	})

	// Feed events 0..59 s on a virtual-time schedule: one per second.
	noEmit := func(stream.Event) {}
	for i := 0; i < 60; i++ {
		at := vclock.Time(i) * vclock.Time(time.Second)
		sched.At(at, func(now vclock.Time) {
			counter.OnEvent(0, stream.Event{Time: now, Key: "k"}, noEmit)
		})
	}
	// Run to t=45: checkpoints at 30 (covering events 0..30).
	if err := sched.RunUntil(45 * time.Second); err != nil {
		t.Fatal(err)
	}
	if coord.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", coord.Epoch())
	}

	// Crash: recover a fresh operator from the latest checkpoint, which is
	// at the task's own site (localized checkpointing).
	ref, snap, ok := store.LatestExcluding("q", "count", 0)
	if !ok {
		t.Fatal("no local checkpoint")
	}
	if ref.Epoch != 1 || ref.Site != 2 {
		t.Fatalf("checkpoint ref = %+v", ref)
	}
	restored := stream.Count(10 * time.Second)
	if err := restored.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	// Replay events after the checkpoint (the t=30 checkpoint fired
	// before the t=30 event, so replay starts at 30) and continue live.
	for i := 30; i <= 59; i++ {
		restored.OnEvent(0, stream.Event{
			Time: vclock.Time(i) * vclock.Time(time.Second), Key: "k",
		}, noEmit)
	}
	// Reference run without any crash.
	want := stream.Count(10 * time.Second)
	for i := 0; i < 60; i++ {
		want.OnEvent(0, stream.Event{
			Time: vclock.Time(i) * vclock.Time(time.Second), Key: "k",
		}, noEmit)
	}
	outRestored := flushAll(restored)
	outWant := flushAll(want)
	if !reflect.DeepEqual(outRestored, outWant) {
		t.Fatalf("restored run differs:\n%v\n%v", outRestored, outWant)
	}
	ticker.Cancel()
}

func flushAll(h stream.Handler) []stream.Event {
	var out []stream.Event
	h.OnWatermark(stream.MaxWatermark, func(e stream.Event) { out = append(out, e) })
	return out
}
