// Package queries defines the paper's three evaluation queries (Table 3):
//
//   - Advertising Campaign (YSB): stateful windowed campaign counting
//     with all I/O replaced by in-memory operations (as in §8.3);
//   - Top-K Popular Topics: stateful 30 s windowed top-10 topic detection
//     per country over a geo-tagged tweet stream;
//   - Events of Interest: a stateless multi-attribute tweet filter.
//
// Each query is available in two forms sharing one model: a logical plan
// (plan.Graph + re-orderable combine group) for flow-mode wide-area
// experiments, and a record-mode stream.Pipeline for exact-semantics
// execution, examples, and quality measurements.
package queries

import (
	"time"

	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// Query is one evaluation query in logical-plan form.
type Query struct {
	Name string
	// Graph is the logically optimized base graph (filters already
	// pushed to the sources).
	Graph *plan.Graph
	// Spec is the re-orderable combine group for query re-planning;
	// nil when the query has no such group.
	Spec *plan.CombineSpec
	// SourceOps lists the source operator IDs, in site order.
	SourceOps []plan.OpID
	// Stateful reports whether the query maintains operator state.
	Stateful bool

	// Table 3 metadata.
	StateDesc string
}

// Config parameterises query construction.
type Config struct {
	// SourceSites hosts one source each (the paper uses the 8 edge
	// sites).
	SourceSites []topology.SiteID
	// SinkSite hosts the sink (typically a data center near the Job
	// Manager).
	SinkSite topology.SiteID
	// RatePerSource is the initial per-source event rate (paper: 10000
	// events/s, §8.4).
	RatePerSource float64
	// RateForSite, when non-nil, supplies each source site's initial
	// rate instead of the flat RatePerSource — planet-scale topologies
	// derive it from the site's simulated user population.
	RateForSite func(topology.SiteID) float64
}

func (c Config) withDefaults() Config {
	if c.RatePerSource == 0 {
		c.RatePerSource = 10000
	}
	return c
}

// rateFor returns the initial source rate for one site.
func (c Config) rateFor(site topology.SiteID) float64 {
	if c.RateForSite != nil {
		return c.RateForSite(site)
	}
	return c.RatePerSource
}

// YSBCampaign builds the YSB Advertising Campaign query: per-site
// source → filter(view, σ=1/3) → project → join with the in-memory
// campaign table, then a distributed 10 s windowed count per campaign
// (the re-orderable combine group), feeding the sink.
//
// State: the windowed campaign counters (<10 MB, Table 3).
func YSBCampaign(cfg Config) *Query {
	c := cfg.withDefaults()
	g := plan.NewGraph()
	var inputs []plan.OpID
	var sources []plan.OpID
	for _, site := range c.SourceSites {
		src := g.AddOperator(plan.Operator{
			Name: "ysb-src", Kind: plan.KindSource, PinnedSite: site,
			Selectivity: 1, OutEventBytes: 180, SourceRate: c.rateFor(site),
		})
		// filter(view) → project → join(campaign) chained into one task
		// (stateless operator chaining, as Flink does): σ = 1/3 views,
		// compact 64 B projected+joined tuples.
		chain := g.AddOperator(plan.Operator{
			Name: "filter-project-join", Kind: plan.KindMap, Splittable: true,
			Selectivity: 1.0 / 3, OutEventBytes: 96, CostPerEvent: 3,
		})
		g.MustConnect(src, chain)
		sources = append(sources, src)
		inputs = append(inputs, chain)
	}
	sink := g.AddOperator(plan.Operator{Name: "ysb-sink", Kind: plan.KindSink, PinnedSite: c.SinkSite})
	spec := &plan.CombineSpec{
		Inputs: inputs,
		Output: sink,
		Template: plan.Operator{
			Name: "count10s", Kind: plan.KindAggregate, Stateful: true, Splittable: true,
			// 100 campaigns per 10 s window against the (combined)
			// incoming view stream: tiny output rate.
			Selectivity: 0.004, OutEventBytes: 40, CostPerEvent: 2,
			StateBytes: 8e6, Window: 10 * time.Second,
		},
	}
	return &Query{
		Name:      "ysb-campaign",
		Graph:     g,
		Spec:      spec,
		SourceOps: sources,
		Stateful:  true,
		StateDesc: "<10 MB",
	}
}

// TopKTopics builds the Top-K Popular Topics query: per-site
// source → filter(geo-tagged, σ=0.9) → map(extract topic), then a
// distributed 30 s windowed per-country topic count (the combine group,
// ~100 MB of state), a final top-10 selection, and the sink.
func TopKTopics(cfg Config) *Query {
	c := cfg.withDefaults()
	g := plan.NewGraph()
	var inputs []plan.OpID
	var sources []plan.OpID
	for _, site := range c.SourceSites {
		src := g.AddOperator(plan.Operator{
			Name: "tweet-src", Kind: plan.KindSource, PinnedSite: site,
			Selectivity: 1, OutEventBytes: 240, SourceRate: c.rateFor(site),
		})
		// filter(geo-tagged) → map(extract topic) chained into one task:
		// σ = 0.9, compact 24 B (country, topic) tuples.
		chain := g.AddOperator(plan.Operator{
			Name: "filter-extract", Kind: plan.KindMap, Splittable: true,
			Selectivity: 0.9, OutEventBytes: 32, CostPerEvent: 3,
		})
		g.MustConnect(src, chain)
		sources = append(sources, src)
		inputs = append(inputs, chain)
	}
	topk := g.AddOperator(plan.Operator{
		Name: "topk-finalize", Kind: plan.KindTopK, Stateful: true, Splittable: false,
		// The finalizer selects the top-10 from already-windowed partial
		// counts; it adds processing cost but no further window hold.
		Selectivity: 1, OutEventBytes: 400, CostPerEvent: 1,
		StateBytes: 4e6,
	})
	sink := g.AddOperator(plan.Operator{Name: "topk-sink", Kind: plan.KindSink, PinnedSite: c.SinkSite})
	g.MustConnect(topk, sink)
	spec := &plan.CombineSpec{
		Inputs: inputs,
		Output: topk,
		Template: plan.Operator{
			Name: "count-topics", Kind: plan.KindAggregate, Stateful: true, Splittable: true,
			// Per 30 s window: ~8 countries × topic counts; partial
			// aggregation strongly reduces the stream.
			Selectivity: 0.02, OutEventBytes: 56, CostPerEvent: 2,
			StateBytes: 100e6, Window: 30 * time.Second,
		},
	}
	return &Query{
		Name:      "topk-topics",
		Graph:     g,
		Spec:      spec,
		SourceOps: sources,
		Stateful:  true,
		StateDesc: "~100 MB",
	}
}

// EventsOfInterest builds the stateless Events of Interest query:
// per-site source → filter(attributes, σ=0.1) → project, unioned (the
// stateless combine group) into the sink.
func EventsOfInterest(cfg Config) *Query {
	c := cfg.withDefaults()
	g := plan.NewGraph()
	var inputs []plan.OpID
	var sources []plan.OpID
	for _, site := range c.SourceSites {
		src := g.AddOperator(plan.Operator{
			Name: "tweet-src", Kind: plan.KindSource, PinnedSite: site,
			Selectivity: 1, OutEventBytes: 240, SourceRate: c.rateFor(site),
		})
		// filter(attributes) → project chained into one task: σ = 0.1,
		// 96 B projected tuples.
		chain := g.AddOperator(plan.Operator{
			Name: "filter-project", Kind: plan.KindFilter, Splittable: true,
			Selectivity: 0.12, OutEventBytes: 240, CostPerEvent: 2,
		})
		g.MustConnect(src, chain)
		sources = append(sources, src)
		inputs = append(inputs, chain)
	}
	sink := g.AddOperator(plan.Operator{Name: "eoi-sink", Kind: plan.KindSink, PinnedSite: c.SinkSite})
	spec := &plan.CombineSpec{
		Inputs: inputs,
		Output: sink,
		Template: plan.Operator{
			Name: "union", Kind: plan.KindUnion, Stateful: false, Splittable: true,
			Selectivity: 1, OutEventBytes: 240, CostPerEvent: 0.5,
		},
	}
	return &Query{
		Name:      "events-of-interest",
		Graph:     g,
		Spec:      spec,
		SourceOps: sources,
		Stateful:  false,
		StateDesc: "0 MB",
	}
}

// Table3Row is one row of the paper's Table 3.
type Table3Row struct {
	Application string
	State       string
	Operators   string
	Dataset     string
}

// Table3 returns the query-details table (Table 3) for the three
// evaluation queries.
func Table3() []Table3Row {
	return []Table3Row{
		{Application: "Advertising Campaign", State: "<10 MB", Operators: "filter, map, window, join", Dataset: "YSB synthetic data"},
		{Application: "Top-K Topics", State: "~100 MB", Operators: "filter, map, union, window, reduce", Dataset: "Twitter trace (scaled)"},
		{Application: "Events of Interest", State: "0 MB", Operators: "filter, union, project", Dataset: "Twitter trace (scaled)"},
	}
}
