package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/stream"
	"github.com/wasp-stream/wasp/internal/workload"
)

const (
	recordBatch            = 1_000_000 // events per batch at the generators' 10 000 ev/s
	recordSources          = 4
	recordReplaysPerSecond = 2.4 // replays of each batch
	ysbWindow              = 10 * time.Second
	topkWindow             = 30 * time.Second
	topkK                  = 10
	recordWatermarkEvery   = time.Second
)

// recordWorkload replays one generated YSB batch and one generated tweet
// batch through fresh record-mode pipelines; its op is the record injected.
type recordWorkload struct {
	replays int
	ads     []workload.AdEvent
	tweets  []workload.Tweet
	// Per-source splits of the boxed streams, round-robin as the examples do.
	adStreams, tweetStreams [][]stream.Event
}

func setupRecord(seed int64, seconds float64) (instance, error) {
	return newRecordWorkload(seed, seconds, recordBatch), nil
}

func newRecordWorkload(seed int64, seconds float64, batch int) *recordWorkload {
	dur := time.Duration(float64(batch) / ratePerSource * float64(time.Second))
	w := &recordWorkload{replays: max(1, int(math.Round(seconds*recordReplaysPerSecond)))}
	w.ads = workload.GenerateYSB(workload.YSBConfig{
		Seed: cellSeed(seed, "record_ysb_topk.ysb", 0), Campaigns: 100, Duration: dur,
	})
	w.tweets = workload.GenerateTweets(workload.TwitterConfig{
		Seed: cellSeed(seed, "record_ysb_topk.tweets", 0), Topics: 1000, Diurnal: true, Duration: dur,
	})
	w.adStreams = splitStream(workload.YSBStream(w.ads))
	w.tweetStreams = splitStream(workload.TweetStream(w.tweets))
	return w
}

func splitStream(events []stream.Event) [][]stream.Event {
	out := make([][]stream.Event, recordSources)
	for i := range out {
		out[i] = make([]stream.Event, 0, len(events)/recordSources+1)
	}
	for i, e := range events {
		out[i%recordSources] = append(out[i%recordSources], e)
	}
	return out
}

// replay runs one batch through a fresh pipeline inside the timed region and
// returns the sink's output.
func replay(m *meter, rp *queries.RecordPipeline, streams [][]stream.Event) ([]stream.Event, error) {
	inputs := stream.Inputs{}
	for i, src := range rp.Sources {
		inputs[src] = streams[i]
	}
	m.start()
	err := guard(func() error {
		return rp.Pipeline.Run(inputs, stream.RunConfig{WatermarkEvery: recordWatermarkEvery})
	})
	m.stop()
	if err != nil {
		return nil, err
	}
	return rp.Pipeline.SinkEvents(rp.Sink), nil
}

func (w *recordWorkload) measure(m *meter, share float64) *outcome {
	out := newOutcome()
	n := max(1, int(share*float64(w.replays)))
	out.fullOps = int64(n * (len(w.ads) + len(w.tweets)))
	ysbWant := ysbOracle(w.ads)
	var first string
	for r := 0; r < n && !m.expired(); r++ {
		out.attempted++
		sink, err := replay(m, queries.BuildYSBRecord(recordSources, ysbWindow), w.adStreams)
		if err == nil {
			err = checkYSB(sink, ysbWant)
		}
		if err != nil {
			out.failf("ysb replay %d: %v", r, err)
		}
		out.rowf("ysb replay %d: %d results %s ok=%v", r, len(sink), sinkDigest(sink), err == nil)

		out.attempted++
		sink, err = replay(m, queries.BuildTopKRecord(recordSources, topkK, topkWindow), w.tweetStreams)
		d := sinkDigest(sink)
		// The brute-force ranking costs about a replay, so only the first
		// replay pays it; the others must reproduce the first's output.
		switch {
		case err != nil:
		case r == 0:
			first, err = d, checkTopK(sink, w.tweets)
		case d != first:
			err = fmt.Errorf("output differs from replay 0")
		}
		if err != nil {
			out.failf("topk replay %d: %v", r, err)
		}
		out.rowf("topk replay %d: %d results %s ok=%v", r, len(sink), d, err == nil)
		out.ops += int64(len(w.ads) + len(w.tweets))
	}
	return out
}

func sinkDigest(sink []stream.Event) string {
	h := sha256.New()
	for _, e := range sink {
		fmt.Fprintln(h, e)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func windowKey(t time.Duration, window time.Duration, key string) string {
	return fmt.Sprintf("%d/%s", t/window, key)
}

// ysbOracle counts the view events per (window, campaign) straight from the
// generated batch.
func ysbOracle(ads []workload.AdEvent) map[string]int64 {
	want := map[string]int64{}
	for _, e := range ads {
		if e.EventType == workload.AdView {
			want[windowKey(e.Time, ysbWindow, fmt.Sprintf("c%d", e.CampaignID))]++
		}
	}
	return want
}

func checkYSB(sink []stream.Event, want map[string]int64) error {
	got := map[string]int64{}
	for _, e := range sink {
		n, ok := e.Value.(int64)
		if !ok {
			return fmt.Errorf("sink value %T, want int64", e.Value)
		}
		got[windowKey(e.Time, ysbWindow, e.Key)] += n
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d (window, campaign) counts, oracle has %d", len(got), len(want))
	}
	for _, k := range detutil.SortedKeys(want) {
		if got[k] != want[k] {
			return fmt.Errorf("window/campaign %s: counted %d, oracle %d", k, got[k], want[k])
		}
	}
	return nil
}

// checkTopK ranks every (window, country) group by brute force and compares
// with the pipeline's answer.
func checkTopK(sink []stream.Event, tweets []workload.Tweet) error {
	counts := map[string]map[string]int64{}
	for _, tw := range tweets {
		if tw.Country == "" {
			continue
		}
		k := windowKey(tw.Time, topkWindow, tw.Country)
		if counts[k] == nil {
			counts[k] = map[string]int64{}
		}
		counts[k][tw.Topic]++
	}
	if len(sink) != len(counts) {
		return fmt.Errorf("%d (window, country) rankings, oracle has %d", len(sink), len(counts))
	}
	for _, e := range sink {
		got, ok := e.Value.([]stream.TopicCount)
		if !ok {
			return fmt.Errorf("sink value %T, want []stream.TopicCount", e.Value)
		}
		k := windowKey(e.Time, topkWindow, e.Key)
		var want []stream.TopicCount
		for _, topic := range detutil.SortedKeys(counts[k]) {
			want = append(want, stream.TopicCount{Topic: topic, Count: counts[k][topic]})
		}
		// Stable over ascending topics: ties go to the smaller topic.
		slices.SortStableFunc(want, func(a, b stream.TopicCount) int { return cmp.Compare(b.Count, a.Count) })
		want = want[:min(topkK, len(want))]
		if !slices.Equal(got, want) {
			return fmt.Errorf("window/country %s: got %v, brute force %v", k, got, want)
		}
	}
	return nil
}
