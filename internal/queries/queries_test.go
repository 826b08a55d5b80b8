package queries

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/stream"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
	"github.com/wasp-stream/wasp/internal/workload"
)

func testConfig() Config {
	return Config{
		SourceSites:   []topology.SiteID{8, 9, 10, 11, 12, 13, 14, 15},
		SinkSite:      0,
		RatePerSource: 10000,
	}
}

func TestQueriesValidateAndSchedule(t *testing.T) {
	top := topology.Generate(topology.DefaultGenConfig(1))
	builders := map[string]func(Config) *Query{
		"ysb":  YSBCampaign,
		"topk": TopKTopics,
		"eoi":  EventsOfInterest,
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			q := build(testConfig())
			// The base graph is completed by combine expansion; validity
			// of expanded variants is checked through PlanQuery below.
			if len(q.SourceOps) != 8 {
				t.Fatalf("sources = %d, want 8", len(q.SourceOps))
			}
			if q.Spec == nil {
				t.Fatal("query has no combine spec")
			}
			best, all, err := physical.PlanQuery(q.Graph, q.Spec, top, physical.PlannerConfig{
				ScheduleConfig: physical.ScheduleConfig{Alpha: 0.8},
				MaxVariants:    40,
			})
			if err != nil {
				t.Fatalf("PlanQuery: %v", err)
			}
			if len(all) == 0 {
				t.Fatal("no candidates")
			}
			if err := best.Plan.Validate(top); err != nil {
				t.Fatalf("best plan invalid: %v", err)
			}
		})
	}
}

func TestQueryStatefulness(t *testing.T) {
	cfg := testConfig()
	if !YSBCampaign(cfg).Stateful || !TopKTopics(cfg).Stateful {
		t.Fatal("stateful queries misreported")
	}
	if EventsOfInterest(cfg).Stateful {
		t.Fatal("events-of-interest reported stateful")
	}
	if EventsOfInterest(cfg).Spec.Template.Stateful {
		t.Fatal("EOI combine template stateful")
	}
}

func TestTable3(t *testing.T) {
	rows := Table3()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].State != "<10 MB" || rows[1].State != "~100 MB" || rows[2].State != "0 MB" {
		t.Fatalf("state column mismatch: %+v", rows)
	}
}

func TestYSBRecordCountsViewsPerCampaign(t *testing.T) {
	events := workload.GenerateYSB(workload.YSBConfig{
		Seed: 3, Rate: 2000, Duration: 20 * time.Second, Campaigns: 10,
	})
	rp := BuildYSBRecord(2, 10*time.Second)
	// Split events across the two sources round-robin (keeping order).
	inputs := stream.Inputs{}
	for i, e := range workload.YSBStream(events) {
		src := rp.Sources[i%2]
		inputs[src] = append(inputs[src], e)
	}
	if err := rp.Pipeline.Run(inputs, stream.RunConfig{WatermarkEvery: time.Second}); err != nil {
		t.Fatal(err)
	}
	out := rp.Pipeline.SinkEvents(rp.Sink)

	// Oracle: count views per (window, campaign).
	type wc struct {
		win      vclock.Time
		campaign string
	}
	oracle := make(map[wc]int64)
	for _, e := range events {
		if e.EventType != workload.AdView {
			continue
		}
		oracle[wc{win: (e.Time / vclock.Time(10*time.Second)), campaign: "c" + itoa(e.CampaignID)}]++
	}
	var oracleTotal, gotTotal int64
	for _, v := range oracle {
		oracleTotal += v
	}
	for _, e := range out {
		gotTotal += e.Value.(int64)
	}
	if oracleTotal != gotTotal {
		t.Fatalf("total view count %d != oracle %d", gotTotal, oracleTotal)
	}
	if len(out) != len(oracle) {
		t.Fatalf("result groups %d != oracle groups %d", len(out), len(oracle))
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestTopKRecordMatchesOracle(t *testing.T) {
	tweets := workload.GenerateTweets(workload.TwitterConfig{
		Seed: 11, Rate: 3000, Duration: 30 * time.Second, Topics: 50,
	})
	rp := BuildTopKRecord(2, 5, 30*time.Second)
	inputs := stream.Inputs{}
	for i, e := range workload.TweetStream(tweets) {
		src := rp.Sources[i%2]
		inputs[src] = append(inputs[src], e)
	}
	if err := rp.Pipeline.Run(inputs, stream.RunConfig{WatermarkEvery: time.Second}); err != nil {
		t.Fatal(err)
	}
	out := rp.Pipeline.SinkEvents(rp.Sink)

	// Oracle: per country, top-5 topics over the single 30 s window.
	byCountry := make(map[string]map[string]int64)
	for _, tw := range tweets {
		if byCountry[tw.Country] == nil {
			byCountry[tw.Country] = make(map[string]int64)
		}
		byCountry[tw.Country][tw.Topic]++
	}
	got := make(map[string][]stream.TopicCount)
	for _, e := range out {
		got[e.Key] = e.Value.([]stream.TopicCount)
	}
	if len(got) != len(byCountry) {
		t.Fatalf("countries %d != oracle %d", len(got), len(byCountry))
	}
	for country, counts := range byCountry {
		want := topK(counts, 5)
		if !reflect.DeepEqual(got[country], want) {
			t.Fatalf("country %s: got %v, want %v", country, got[country], want)
		}
	}
}

func TestEOIRecordFilters(t *testing.T) {
	tweets := workload.GenerateTweets(workload.TwitterConfig{
		Seed: 13, Rate: 2000, Duration: 10 * time.Second,
	})
	rp := BuildEOIRecord(2, "en", "t0")
	inputs := stream.Inputs{}
	for i, e := range workload.TweetStream(tweets) {
		src := rp.Sources[i%2]
		inputs[src] = append(inputs[src], e)
	}
	if err := rp.Pipeline.Run(inputs, stream.RunConfig{}); err != nil {
		t.Fatal(err)
	}
	out := rp.Pipeline.SinkEvents(rp.Sink)

	want := 0
	for _, tw := range tweets {
		if tw.Lang == "en" && len(tw.Topic) >= 2 && tw.Topic[:2] == "t0" {
			want++
		}
	}
	if len(out) != want {
		t.Fatalf("filtered %d, oracle %d", len(out), want)
	}
	if want == 0 {
		t.Fatal("oracle empty — filter too strict for a meaningful test")
	}
}

// topK returns the k highest-count topics from counts, ties broken by topic
// name ascending.
func topK(counts map[string]int64, k int) []stream.TopicCount {
	all := make([]stream.TopicCount, 0, len(counts))
	for topic, n := range counts {
		all = append(all, stream.TopicCount{Topic: topic, Count: n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Topic < all[j].Topic
	})
	return all[:min(k, len(all))]
}
