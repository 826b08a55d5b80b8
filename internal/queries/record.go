package queries

import (
	"time"

	"github.com/wasp-stream/wasp/internal/stream"
	"github.com/wasp-stream/wasp/internal/workload"
)

// Record-mode (exact-semantics) pipelines for the three queries, built on
// the internal/stream engine. These are what the examples run and what the
// quality/accuracy comparisons execute.

// RecordPipeline bundles a record-mode pipeline with its source and sink
// node handles.
type RecordPipeline struct {
	Pipeline *stream.Pipeline
	Sources  []stream.NodeID
	Sink     stream.NodeID
}

// BuildYSBRecord builds the record-mode Advertising Campaign pipeline:
// filter(view) → project → join(campaign table, in-memory) → 10 s windowed
// count per campaign. Inputs are workload.AdEvent streams keyed by
// campaign.
func BuildYSBRecord(nSources int, window time.Duration) *RecordPipeline {
	if window <= 0 {
		window = 10 * time.Second
	}
	p := stream.NewPipeline()
	var srcs []stream.NodeID
	union := p.AddNode("union", &stream.Union{})
	for i := 0; i < nSources; i++ {
		src := p.AddSource("ysb-src")
		fil := p.AddNode("filter-views", &stream.Filter{
			Pred: func(e stream.Event) bool {
				return e.Value.(workload.AdEvent).EventType == workload.AdView
			},
		})
		// The "join" with the static campaign table resolves ad → campaign
		// in memory (the generator embeds the mapping; a real table lookup
		// would be equivalent).
		join := p.AddNode("join-campaign", &stream.Map{
			Fn: func(e stream.Event) stream.Event {
				ad := e.Value.(workload.AdEvent)
				return stream.Event{Time: e.Time, Key: e.Key, KeyID: e.KeyID, Value: ad.CampaignID}
			},
		})
		p.MustConnect(src, fil, 0)
		p.MustConnect(fil, join, 0)
		p.MustConnect(join, union, 0)
		srcs = append(srcs, src)
	}
	cnt := p.AddNode("count10s", stream.Count(window))
	sink := p.AddSink("ysb-sink")
	p.MustConnect(union, cnt, 0)
	p.MustConnect(cnt, sink, 0)
	return &RecordPipeline{Pipeline: p, Sources: srcs, Sink: sink}
}

// BuildTopKRecord builds the record-mode Top-K Popular Topics pipeline:
// filter(geo-tagged) → 30 s windowed top-k topics per country. Inputs are
// workload.Tweet streams keyed by country.
func BuildTopKRecord(nSources, k int, window time.Duration) *RecordPipeline {
	if window <= 0 {
		window = 30 * time.Second
	}
	if k <= 0 {
		k = 10
	}
	p := stream.NewPipeline()
	var srcs []stream.NodeID
	union := p.AddNode("union", &stream.Union{})
	for i := 0; i < nSources; i++ {
		src := p.AddSource("tweet-src")
		fil := p.AddNode("filter-geo", &stream.Filter{
			Pred: func(e stream.Event) bool {
				return e.Value.(workload.Tweet).Country != ""
			},
		})
		p.MustConnect(src, fil, 0)
		p.MustConnect(fil, union, 0)
		srcs = append(srcs, src)
	}
	topk := p.AddNode("topk", &stream.WindowTopK{
		Size: window,
		K:    k,
		TopicRef: func(e stream.Event) (string, uint32) {
			tw := e.Value.(workload.Tweet)
			return tw.Topic, tw.TopicID
		},
	})
	sink := p.AddSink("topk-sink")
	p.MustConnect(union, topk, 0)
	p.MustConnect(topk, sink, 0)
	return &RecordPipeline{Pipeline: p, Sources: srcs, Sink: sink}
}

// BuildEOIRecord builds the record-mode Events of Interest pipeline:
// filter tweets by language and topic prefix, project to a compact tuple.
func BuildEOIRecord(nSources int, lang string, topicPrefix string) *RecordPipeline {
	p := stream.NewPipeline()
	var srcs []stream.NodeID
	union := p.AddNode("union", &stream.Union{})
	for i := 0; i < nSources; i++ {
		src := p.AddSource("tweet-src")
		fil := p.AddNode("filter-interest", &stream.Filter{
			Pred: func(e stream.Event) bool {
				tw := e.Value.(workload.Tweet)
				if lang != "" && tw.Lang != lang {
					return false
				}
				return topicPrefix == "" || hasPrefix(tw.Topic, topicPrefix)
			},
		})
		p.MustConnect(src, fil, 0)
		p.MustConnect(fil, union, 0)
		srcs = append(srcs, src)
	}
	proj := p.AddNode("project", &stream.Map{
		Fn: func(e stream.Event) stream.Event {
			tw := e.Value.(workload.Tweet)
			return stream.Event{Time: e.Time, Key: tw.Country, Value: tw.Topic}
		},
	})
	sink := p.AddSink("eoi-sink")
	p.MustConnect(union, proj, 0)
	p.MustConnect(proj, sink, 0)
	return &RecordPipeline{Pipeline: p, Sources: srcs, Sink: sink}
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}
