package queries

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/stream"
	"github.com/wasp-stream/wasp/internal/vclock"
	"github.com/wasp-stream/wasp/internal/workload"
)

// Cross-validation between the two execution modes: the flow-mode
// experiments trust the logical plans' selectivity model; here we measure
// the *actual* record-mode reduction of each query on real workloads and
// check the model is calibrated.

func TestYSBModelSelectivityMatchesRecordMode(t *testing.T) {
	events := workload.GenerateYSB(workload.YSBConfig{
		Seed: 17, Rate: 4000, Duration: 30 * time.Second,
	})
	rp := BuildYSBRecord(4, 10*time.Second)
	inputs := stream.Inputs{}
	for i, e := range workload.YSBStream(events) {
		src := rp.Sources[i%4]
		inputs[src] = append(inputs[src], e)
	}
	if err := rp.Pipeline.Run(inputs, stream.RunConfig{WatermarkEvery: time.Second}); err != nil {
		t.Fatal(err)
	}
	// The flow-mode chain models σ = 1/3 (view filter); measure it.
	var views int
	for _, e := range events {
		if e.EventType == workload.AdView {
			views++
		}
	}
	measured := float64(views) / float64(len(events))
	q := YSBCampaign(testConfig())
	modeled := q.Graph.Operator(q.Graph.Downstream(q.SourceOps[0])[0]).Selectivity
	if math.Abs(measured-modeled) > 0.02 {
		t.Fatalf("YSB chain selectivity: record-mode %.3f vs flow model %.3f", measured, modeled)
	}
}

func TestTopKModelOutputRateMatchesRecordMode(t *testing.T) {
	const (
		rate     = 8000.0
		duration = 120 * time.Second
		window   = 30 * time.Second
	)
	tweets := workload.GenerateTweets(workload.TwitterConfig{
		Seed: 19, Rate: rate, Duration: duration,
	})
	rp := BuildTopKRecord(4, 10, window)
	inputs := stream.Inputs{}
	for i, e := range workload.TweetStream(tweets) {
		src := rp.Sources[i%4]
		inputs[src] = append(inputs[src], e)
	}
	if err := rp.Pipeline.Run(inputs, stream.RunConfig{WatermarkEvery: time.Second}); err != nil {
		t.Fatal(err)
	}
	out := rp.Pipeline.SinkEvents(rp.Sink)
	// Record mode: one result per (window, country). Flow mode models the
	// aggregation as a strong reduction (combine σ=0.02 cascaded); the
	// record-mode ratio should be of the same order or stronger — the
	// fluid model must not *underestimate* the traffic it sends on.
	recordRatio := float64(len(out)) / float64(len(tweets))
	if recordRatio > 0.02 {
		t.Fatalf("record-mode reduction %.5f weaker than the flow model's 0.02", recordRatio)
	}
	// Sanity: every 30 s window yields at most 8 (countries) results.
	windows := int(duration / window)
	if len(out) > windows*8 {
		t.Fatalf("outputs %d exceed windows(%d)×countries(8)", len(out), windows)
	}
}

func TestEOIModelSelectivityMatchesRecordMode(t *testing.T) {
	tweets := workload.GenerateTweets(workload.TwitterConfig{
		Seed: 23, Rate: 5000, Duration: 30 * time.Second, Topics: 100,
	})
	// The flow model's filter-project chain uses σ = 0.12; pick a
	// record-mode predicate with a comparable pass rate: English tweets
	// carry weight ~0.40 (us+gb), topic prefix "t0" matches topics
	// t00..t09 of the Zipf vocabulary — measure and compare orders.
	rp := BuildEOIRecord(4, "en", "t0")
	inputs := stream.Inputs{}
	for i, e := range workload.TweetStream(tweets) {
		src := rp.Sources[i%4]
		inputs[src] = append(inputs[src], e)
	}
	if err := rp.Pipeline.Run(inputs, stream.RunConfig{}); err != nil {
		t.Fatal(err)
	}
	measured := float64(len(rp.Pipeline.SinkEvents(rp.Sink))) / float64(len(tweets))
	// Zipf concentration puts most mass on t00xx topics; the English
	// share is ~40%: measured pass rate lands in the same regime the
	// model's 0.12 represents (well under 1, well over 0.01).
	if measured < 0.01 || measured > 0.6 {
		t.Fatalf("EOI record-mode selectivity %.4f out of the modelled regime", measured)
	}
}

// End-to-end record-mode oracles, independent of the pipeline: what reaches
// the sink must be exactly what a direct pass over the generated batch
// computes, window by window — the checks the repository benchmark applies
// to its record workload, here under `go test ./...`.

// runRecord splits events round-robin over the pipeline's sources (keeping
// order) and runs it with 1 s watermarks.
func runRecord(t *testing.T, rp *RecordPipeline, events []stream.Event) []stream.Event {
	t.Helper()
	inputs := stream.Inputs{}
	for i, e := range events {
		src := rp.Sources[i%len(rp.Sources)]
		inputs[src] = append(inputs[src], e)
	}
	if err := rp.Pipeline.Run(inputs, stream.RunConfig{WatermarkEvery: time.Second}); err != nil {
		t.Fatal(err)
	}
	return rp.Pipeline.SinkEvents(rp.Sink)
}

// group is one (window, key) cell; window is the floor of the event time
// over the window size, also for times before zero.
type group struct {
	window vclock.Time
	key    string
}

func groupOf(at vclock.Time, size time.Duration, key string) group {
	w := at / vclock.Time(size)
	if at%vclock.Time(size) < 0 {
		w--
	}
	return group{window: w, key: key}
}

// YSB: per-(window, campaign) counts equal a direct count of view events,
// each result is stamped with the latest view of its window, and a batch
// before time zero is no different.
func TestYSBRecordCountsMatchDirectCount(t *testing.T) {
	const window = 10 * time.Second
	for _, start := range []time.Duration{0, -time.Hour} {
		events := workload.GenerateYSB(workload.YSBConfig{Seed: 29, Rate: 4000, Duration: 35 * time.Second})
		for i := range events {
			events[i].Time += vclock.Time(start)
		}
		want := map[group]int64{}
		latest := map[vclock.Time]vclock.Time{}
		for _, e := range events {
			if e.EventType != workload.AdView {
				continue
			}
			g := groupOf(e.Time, window, fmt.Sprintf("c%d", e.CampaignID))
			want[g]++
			latest[g.window] = e.Time // the batch is time-ordered
		}
		got := map[group]int64{}
		for _, e := range runRecord(t, BuildYSBRecord(4, window), workload.YSBStream(events)) {
			g := groupOf(e.Time, window, e.Key)
			if _, dup := got[g]; dup {
				t.Fatalf("start %v: %v emitted twice", start, g)
			}
			got[g] = e.Value.(int64)
			if e.Time != latest[g.window] {
				t.Fatalf("start %v: %v stamped %v, latest view of its window is %v", start, g, e.Time, latest[g.window])
			}
		}
		if len(want) < 4*100 {
			t.Fatalf("start %v: oracle has %d groups — batch too small for a meaningful test", start, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("start %v: per-(window, campaign) counts differ from the direct count (%d vs %d groups)", start, len(got), len(want))
		}
	}
}

// Top-k: per-(window, country) rankings equal a brute-force ranking — every
// topic counted, sorted by count with ties to the smaller topic, cut at k —
// that shares no code with stream.TopK.
func TestTopKRecordRankingsMatchBruteForce(t *testing.T) {
	const (
		window = 30 * time.Second
		k      = 10
	)
	tweets := workload.GenerateTweets(workload.TwitterConfig{
		Seed: 31, Rate: 3000, Topics: 200, Diurnal: true, Duration: 100 * time.Second,
	})
	counts := map[group]map[string]int64{}
	for _, tw := range tweets {
		g := groupOf(tw.Time, window, tw.Country)
		if counts[g] == nil {
			counts[g] = map[string]int64{}
		}
		counts[g][tw.Topic]++
	}
	out := runRecord(t, BuildTopKRecord(4, k, window), workload.TweetStream(tweets))
	if len(out) != len(counts) || len(counts) < 4*8 {
		t.Fatalf("%d rankings, brute force has %d (want at least 4 windows × 8 countries)", len(out), len(counts))
	}
	ties := 0
	for _, e := range out {
		g := groupOf(e.Time, window, e.Key)
		var want []stream.TopicCount
		for topic, n := range counts[g] {
			want = append(want, stream.TopicCount{Topic: topic, Count: n})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Count != want[j].Count {
				return want[i].Count > want[j].Count
			}
			return want[i].Topic < want[j].Topic
		})
		want = want[:min(k, len(want))]
		for i := 1; i < len(want); i++ {
			if want[i].Count == want[i-1].Count {
				ties++
			}
		}
		if got := e.Value.([]stream.TopicCount); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: got %v, brute force %v", g, got, want)
		}
	}
	if ties == 0 {
		t.Fatal("no tied counts in any ranking — the tie rule went unexercised")
	}
}

// The record path's allocation ceiling: a fresh pipeline run over 100 k
// records — building the pipeline, the operators' symbol tables and window
// rows, sink growth and every flush included — stays under 0.005 allocations
// per record (measured: YSB 0.0027, top-k 0.0025), i.e. a few hundred per
// run and none that grows with the records: Count keeps its counts unboxed
// and boxes one per emitted result, and dispatch contributes none
// (stream.TestDispatchAllocs).
func TestRecordPathAllocs(t *testing.T) {
	const records = 100_000
	split := func(events []stream.Event) [][]stream.Event {
		streams := make([][]stream.Event, 4)
		for i, e := range events[:records] {
			streams[i%4] = append(streams[i%4], e)
		}
		return streams
	}
	for _, c := range []struct {
		name    string
		streams [][]stream.Event
		build   func() *RecordPipeline
	}{
		{"ysb", split(workload.YSBStream(workload.GenerateYSB(workload.YSBConfig{Seed: 1, Duration: 10 * time.Second}))),
			func() *RecordPipeline { return BuildYSBRecord(4, 10*time.Second) }},
		{"topk", split(workload.TweetStream(workload.GenerateTweets(workload.TwitterConfig{Seed: 1, Diurnal: true, Duration: 10 * time.Second}))),
			func() *RecordPipeline { return BuildTopKRecord(4, 10, 30*time.Second) }},
	} {
		perRun := testing.AllocsPerRun(3, func() {
			rp := c.build()
			inputs := stream.Inputs{}
			for i, src := range rp.Sources {
				inputs[src] = c.streams[i]
			}
			if err := rp.Pipeline.Run(inputs, stream.RunConfig{WatermarkEvery: time.Second}); err != nil {
				t.Fatal(err)
			}
		})
		if perRecord := perRun / records; perRecord > 0.005 {
			t.Errorf("%s: %.4f allocs/record, ceiling 0.005", c.name, perRecord)
		} else {
			t.Logf("%s: %.4f allocs/record", c.name, perRecord)
		}
	}
}
