package physical

import (
	"testing"

	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
)

// ysb8 is the paper's YSB query over 8 source sites: the shape every
// 16-site plan request and every flow-mode cell expands.
func ysb8() *queries.Query {
	sites := make([]topology.SiteID, 8)
	for i := range sites {
		sites[i] = topology.SiteID(i + 8)
	}
	return queries.YSBCampaign(queries.Config{SourceSites: sites})
}

// paperVariants is the combine-order cap the benchmark's 16-site cells use.
const paperVariants = 40

var sessionSink *Session

func BenchmarkNewSession(b *testing.B) {
	q := ysb8()
	b.ReportAllocs()
	for b.Loop() {
		s, err := NewSession(q.Graph, q.Spec, paperVariants)
		if err != nil {
			b.Fatal(err)
		}
		sessionSink = s
	}
}

var candidatesSink []Candidate

// BenchmarkSessionPlan is one warm planning round of ysb8's 40 variants on
// a 16-site testbed: the request plan_storm serves most.
func BenchmarkSessionPlan(b *testing.B) {
	q := ysb8()
	s, err := NewSession(q.Graph, q.Spec, paperVariants)
	if err != nil {
		b.Fatal(err)
	}
	top := topology.Generate(topology.DefaultGenConfig(1))
	if _, _, err := s.Plan(top, PlannerConfig{}, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		_, all, err := s.Plan(top, PlannerConfig{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		candidatesSink = all
	}
}

// TestNewSessionAllocs holds session construction — 40 variant graphs,
// each cloned, expanded, validated and staged — under a ceiling about a
// fifth above what the slice store measures (2,859; the map store with
// fmt-built names measured 8,852).
func TestNewSessionAllocs(t *testing.T) {
	q := ysb8()
	got := testing.AllocsPerRun(20, func() {
		s, err := NewSession(q.Graph, q.Spec, paperVariants)
		if err != nil {
			t.Fatal(err)
		}
		sessionSink = s
	})
	if ceiling := 3400.0; got > ceiling {
		t.Fatalf("NewSession allocates %v times, ceiling %v", got, ceiling)
	}
}
