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

var candidateSink *Candidate

// BenchmarkPlanQuery is one cold request, ysb8's 40 variants enumerated,
// expanded, staged and planned from scratch on a 16-site testbed: the cold
// share of plan_storm's 16-site requests.
func BenchmarkPlanQuery(b *testing.B) {
	q := ysb8()
	top := topology.Generate(topology.DefaultGenConfig(1))
	cfg := PlannerConfig{MaxVariants: paperVariants}
	b.ReportAllocs()
	for b.Loop() {
		best, _, err := PlanQuery(q.Graph, q.Spec, top, cfg)
		if err != nil {
			b.Fatal(err)
		}
		candidateSink = best
	}
}

// TestNewSessionAllocs holds session construction — 40 variant graphs,
// each expanded in one block, validated and staged — under a ceiling about
// a fifth above what it measures (565; Clone, AddOperator and Connect per
// variant measured 2,699, and the map store with fmt-built names 8,852).
func TestNewSessionAllocs(t *testing.T) {
	q := ysb8()
	got := testing.AllocsPerRun(20, func() {
		s, err := NewSession(q.Graph, q.Spec, paperVariants)
		if err != nil {
			t.Fatal(err)
		}
		sessionSink = s
	})
	if ceiling := 680.0; got > ceiling {
		t.Fatalf("NewSession allocates %v times, ceiling %v", got, ceiling)
	}
}
