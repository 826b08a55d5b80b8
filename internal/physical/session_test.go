package physical

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/wasp-stream/wasp/internal/placement"
	"github.com/wasp-stream/wasp/internal/plan"
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

// BenchmarkPlanQuery is one cold request, ysb8's 40 variants enumerated
// and planned from scratch on a 16-site testbed, the ones the round
// completes expanded and staged: the cold share of plan_storm's 16-site
// requests.
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

// BenchmarkPlanQueryOneVariant is the benchmark's plannability probe: a
// cold request for top-k over 8 sources on a 16-site testbed that plans
// only the first combine order.
func BenchmarkPlanQueryOneVariant(b *testing.B) {
	q := testbedQuery(1, 8)
	top := topology.Generate(topology.DefaultGenConfig(1))
	cfg := PlannerConfig{MaxVariants: 1}
	b.ReportAllocs()
	for b.Loop() {
		best, _, err := PlanQuery(q.Graph, q.Spec, top, cfg)
		if err != nil {
			b.Fatal(err)
		}
		candidateSink = best
	}
}

// planetVariants is the combine-order cap the benchmark's 1000-site cells
// use.
const planetVariants = 12

// BenchmarkPlanetSessionPlan is one warm planning round of top-k's 12
// variants on a 1000-site planet (GenerateScale 50×19, a source on the
// first edge site of each of the first 8 regions, as experiment.IngestPlan
// picks them): plan_storm's warm 1000-site request.
func BenchmarkPlanetSessionPlan(b *testing.B) {
	top := planetTopology(b)
	s := mustSession(b, planetQuery(top, 1), planetVariants)
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

// BenchmarkPlanetPlanQuery is BenchmarkPlanetSessionPlan's request cold:
// the 12 variants enumerated and planned from scratch.
func BenchmarkPlanetPlanQuery(b *testing.B) {
	top := planetTopology(b)
	q := planetQuery(top, 1)
	cfg := PlannerConfig{MaxVariants: planetVariants}
	b.ReportAllocs()
	for b.Loop() {
		best, _, err := PlanQuery(q.Graph, q.Spec, top, cfg)
		if err != nil {
			b.Fatal(err)
		}
		candidateSink = best
	}
}

// TestSessionBuildsOnlyWinners: a session builds a variant's graph and
// plan only the first time a round chooses the variant, and only the
// round's best candidate carries them. A new session has built none. A
// cold ysb8 round, pruned or ranked, builds its winner and nothing else,
// one variant; a round on other rates or links builds at most its new
// winner; a repeated round with the same winner builds nothing and
// returns the same pointers.
func TestSessionBuildsOnlyWinners(t *testing.T) {
	top := topology.Generate(topology.DefaultGenConfig(1))
	built := func(s *Session) []int {
		var out []int
		for i, b := range s.built {
			if b.variant != nil {
				out = append(out, i)
			}
		}
		return out
	}
	// chose checks that a round built at most its winner, as the
	// session's, and returns what the session has built.
	chose := func(what string, s *Session, before []int, best *Candidate, cands []Candidate, err error) []int {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		b := s.built[best.index]
		if best.Variant != b.variant || best.Plan != b.plan || best.Variant.Tree != best.Tree || best.Tree != s.view.trees[best.index] {
			t.Fatalf("%s: the best is not the session's variant %d", what, best.index)
		}
		if err := onlyBestBuilt(cands); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want := slices.Clone(before)
		if !slices.Contains(want, best.index) {
			want = append(want, best.index)
			slices.Sort(want)
		}
		if got := built(s); !slices.Equal(got, want) {
			t.Fatalf("%s: built %v before and %v after, choosing variant %d", what, before, got, best.index)
		}
		return want
	}
	for _, f := range roundFuncs {
		s := mustSession(t, ysb8(), paperVariants)
		have := built(s)
		if len(have) != 0 {
			t.Fatalf("a new session has built variants %v, want none", have)
		}
		best, cands, err := f.round(s, top, PlannerConfig{}, nil)
		have = chose(f.name+", cold", s, have, best, cands, err)
		if len(have) != 1 {
			t.Fatalf("%s: a cold round built variants %v, want its winner alone", f.name, have)
		}
		first := *best
		best, cands, err = f.round(s, top, PlannerConfig{}, nil)
		again := chose(f.name+", again", s, have, best, cands, err)
		if best.index != first.index || best.Variant != first.Variant || best.Plan != first.Plan || len(again) != len(have) {
			t.Fatalf("%s: a repeated round chose variant %d at %p, %p; first %d at %p, %p", f.name, best.index, best.Variant, best.Plan, first.index, first.Variant, first.Plan)
		}
		winners := map[int]bool{best.index: true}
		for _, rateFactor := range []float64{0.6, 1.7} {
			for bw := uint64(0); bw < 3; bw++ {
				cfg := PlannerConfig{ScheduleConfig: ScheduleConfig{RateFactor: rateFactor, Bandwidth: perturbed(top, bw, 0.2, 2.4)}}
				best, cands, err := f.round(s, top, cfg, nil)
				have = chose(fmt.Sprintf("%s, rate ×%v bw %d", f.name, rateFactor, bw), s, have, best, cands, err)
				winners[best.index] = true
			}
		}
		if len(winners) < 2 {
			t.Fatalf("%s: every round chose variant %d: the test holds no new winner", f.name, best.index)
		}
	}
}

// TestRoundPlacesSharedRunsOnce: a round places each run of combine
// stages that variants share once. Ranking ysb8's 40 variants on an open
// testbed, where every variant completes, keeps one step per distinct run
// of combine inputs: 242 of the 280 combine stages the variants have.
func TestRoundPlacesSharedRunsOnce(t *testing.T) {
	s := mustSession(t, ysb8(), paperVariants)
	top := topology.Generate(topology.DefaultGenConfig(1))
	_, all, err := s.Rank(top, PlannerConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(s.view.trees) {
		t.Fatalf("ranked %d of %d variants", len(all), len(s.view.trees))
	}
	runs, stages := map[string]bool{}, 0
	for i := range s.view.trees {
		wiring := s.view.wiringOf(i)
		for n := 2; n <= len(wiring); n += 2 {
			runs[fmt.Sprint(wiring[:n])] = true
			stages++
		}
	}
	if len(s.steps) != len(runs) || len(runs) != 242 || stages != 280 {
		t.Fatalf("the round placed %d combine stages for %d distinct runs of the %d", len(s.steps), len(runs), stages)
	}
}

// TestNewSessionErrorsMatchBuiltVariant: NewSession validates the first
// variant through its view without building it, and returns the error
// that expanding and staging that variant returns, word for word: on a
// valid query (none), and on queries broken in each way the variant's
// validation can catch — in a base operator, in the edges the combine
// adds, and in the combine template.
func TestNewSessionErrorsMatchBuiltVariant(t *testing.T) {
	firstOf := func(g *plan.Graph, kind plan.Kind) plan.OpID {
		for id := range plan.OpID(g.Len()) {
			if g.Operator(id).Kind == kind {
				return id
			}
		}
		t.Fatalf("no operator of kind %v", kind)
		return 0
	}
	breaks := []struct {
		name   string
		mutate func(g *plan.Graph, spec *plan.CombineSpec)
	}{
		{"valid", func(*plan.Graph, *plan.CombineSpec) {}},
		{"template is a source", func(_ *plan.Graph, spec *plan.CombineSpec) { spec.Template.Kind = plan.KindSource }},
		{"template is a sink", func(_ *plan.Graph, spec *plan.CombineSpec) { spec.Template.Kind = plan.KindSink }},
		{"template has a negative selectivity", func(_ *plan.Graph, spec *plan.CombineSpec) { spec.Template.Selectivity = -1 }},
		{"output is a source upstream of the inputs", func(g *plan.Graph, spec *plan.CombineSpec) { spec.Output = firstOf(g, plan.KindSource) }},
		{"output moved from the sink to a lone source", func(g *plan.Graph, spec *plan.CombineSpec) {
			spec.Output = g.AddOperator(plan.Operator{Name: "lone-source", Kind: plan.KindSource, PinnedSite: 0})
		}},
		{"output feeds an input", func(g *plan.Graph, spec *plan.CombineSpec) { g.MustConnect(spec.Output, spec.Inputs[0]) }},
		{"output has negative sizes", func(g *plan.Graph, spec *plan.CombineSpec) { g.Operator(spec.Output).OutEventBytes = -1 }},
		{"unpinned source", func(g *plan.Graph, _ *plan.CombineSpec) {
			g.Operator(firstOf(g, plan.KindSource)).PinnedSite = plan.NoSite
		}},
		{"sink with no inputs", func(g *plan.Graph, _ *plan.CombineSpec) {
			g.AddOperator(plan.Operator{Name: "stray-sink", Kind: plan.KindSink})
		}},
		{"dangling operator", func(g *plan.Graph, _ *plan.CombineSpec) {
			g.AddOperator(plan.Operator{Name: "stray", Kind: plan.KindMap, Selectivity: 1})
		}},
	}
	// built is NewSession's error as it was when the session expanded and
	// staged the first variant.
	built := func(base *plan.Graph, spec *plan.CombineSpec, maxVariants int) error {
		trees := plan.EnumerateTrees(len(spec.Inputs), maxVariants)
		if err := spec.Check(base, trees); err != nil {
			return err
		}
		v, err := spec.Expand(base, trees[0])
		if err != nil {
			return err
		}
		if _, err := FromLogical(v.Graph); err != nil {
			return fmt.Errorf("variant %v: %w", trees[0], err)
		}
		return nil
	}
	for _, b := range breaks {
		for _, maxVariants := range []int{1, paperVariants} {
			q := ysb8()
			g, spec := q.Graph.Clone(), *q.Spec
			b.mutate(g, &spec)
			_, err := NewSession(g, &spec, maxVariants)
			want := built(g, &spec, maxVariants)
			if fmt.Sprint(err) != fmt.Sprint(want) {
				t.Errorf("%s, %d variants: NewSession returns %v, the built variant %v", b.name, maxVariants, err, want)
			}
			if b.name != "valid" && err == nil {
				t.Errorf("%s, %d variants: NewSession accepts it", b.name, maxVariants)
			}
		}
	}
}

// TestNewSessionAllocs holds session construction — ysb8's 40 trees
// enumerated and checked, the first variant validated through the
// session's view — under a ceiling about a fifth above what it measures
// (22, of which EnumerateTrees is 13; 35 when the first variant was
// expanded and staged to validate it, 37 when it was expanded as a batch
// of one, 60 when a session expanded and staged all 40 variants up front,
// 565 with one block per variant, Clone, AddOperator and Connect per
// variant 2,699, and the map store with fmt-built names 8,852). Outside
// EnumerateTrees a session is the same allocations at 105 variants as at
// 40.
func TestNewSessionAllocs(t *testing.T) {
	q := ysb8()
	session := func(maxVariants int) float64 {
		return testing.AllocsPerRun(20, func() {
			s, err := NewSession(q.Graph, q.Spec, maxVariants)
			if err != nil {
				t.Fatal(err)
			}
			sessionSink = s
		})
	}
	got := session(paperVariants)
	if ceiling := 27.0; got > ceiling {
		t.Fatalf("NewSession allocates %v times, ceiling %v", got, ceiling)
	}
	beyondTrees := func(maxVariants int) float64 {
		trees := testing.AllocsPerRun(20, func() { treesSink = plan.EnumerateTrees(len(q.Spec.Inputs), maxVariants) })
		return session(maxVariants) - trees
	}
	if at40, at105 := beyondTrees(paperVariants), beyondTrees(DefaultMaxVariants); at105 > at40 {
		t.Fatalf("NewSession allocates %v times beyond EnumerateTrees at %d variants and %v at %d", at40, paperVariants, at105, DefaultMaxVariants)
	}
}

var treesSink []*plan.Tree

// TestPlanQueryAllocs holds a cold request — ysb8's 40 trees enumerated
// and planned on a 16-site testbed, and only the winner expanded and
// staged — under a ceiling about a fifth above what it measures (58; 71
// when NewSession also built the first variant to validate it, 76 when a
// round built every variant it completed as one batch, 86 when the
// session built all 40 variants up front, 596 with one block per
// variant).
func TestPlanQueryAllocs(t *testing.T) {
	q := ysb8()
	top := topology.Generate(topology.DefaultGenConfig(1))
	cfg := PlannerConfig{MaxVariants: paperVariants}
	got := testing.AllocsPerRun(20, func() {
		best, _, err := PlanQuery(q.Graph, q.Spec, top, cfg)
		if err != nil {
			t.Fatal(err)
		}
		candidateSink = best
	})
	if ceiling := 70.0; got > ceiling {
		t.Fatalf("PlanQuery allocates %v times, ceiling %v", got, ceiling)
	}
}

// TestPlanQueryOneVariantAllocs pins the plannability probe
// (BenchmarkPlanQueryOneVariant) at what it measures: 46 allocations, the
// one variant built once, by the round that chooses it (as many when
// NewSession built it to validate it, 49 when the session kept it as a
// spare until a round completed it).
func TestPlanQueryOneVariantAllocs(t *testing.T) {
	q := testbedQuery(1, 8)
	top := topology.Generate(topology.DefaultGenConfig(1))
	cfg := PlannerConfig{MaxVariants: 1}
	got := testing.AllocsPerRun(20, func() {
		best, _, err := PlanQuery(q.Graph, q.Spec, top, cfg)
		if err != nil {
			t.Fatal(err)
		}
		candidateSink = best
	})
	if ceiling := 46.0; got > ceiling {
		t.Fatalf("a one-variant PlanQuery allocates %v times, ceiling %v", got, ceiling)
	}
}

// TestSessionMatchesFreshExpand builds every variant of a session, each
// through a round that admits only its tree, and holds each to the same
// tree expanded alone by CombineSpec.Expand and staged by FromLogical:
// operator values and names, edge lists in order, CombineNodes, stage
// order and validity, and one stage per operator with Plan.Stage
// answering nil past either end. It then grows every variant's edge lists
// and site lists past their room, and requires each variant to hold
// exactly what was added to it: no list of one variant may share room
// with another's.
func TestSessionMatchesFreshExpand(t *testing.T) {
	type setup struct {
		name        string
		q           *queries.Query
		top         *topology.Topology
		maxVariants int
	}
	var setups []setup
	testbed := topology.Generate(topology.DefaultGenConfig(1))
	for qi := range paperQueries {
		for _, v := range []int{paperVariants, DefaultMaxVariants} {
			setups = append(setups, setup{fmt.Sprintf("q%d, 8 sources, %d variants", qi, v), testbedQuery(qi, 8), testbed, v})
		}
	}
	planet := planetTopology(t)
	setups = append(setups, setup{"top-k, 1000 sites, 12 variants", planetQuery(planet, 1), planet, 12})
	// At a tenth of the rates no link binds, so that every variant has a
	// placement.
	light := PlannerConfig{ScheduleConfig: ScheduleConfig{RateFactor: 0.1}}
	for _, c := range setups {
		s := mustSession(t, c.q, c.maxVariants)
		if len(s.built) != c.maxVariants {
			t.Fatalf("%s: %d variants", c.name, len(s.built))
		}
		placed := make([][][]topology.SiteID, len(s.built))
		for i := range s.built {
			best, err := only(s, i, c.top, light)
			if err != nil {
				t.Fatalf("%s, variant %d: %v", c.name, i, err)
			}
			if best.index != i || best.Plan != s.built[i].plan {
				t.Fatalf("%s: a round admitting only variant %d chose %d", c.name, i, best.index)
			}
			for _, st := range best.Plan.Stages {
				placed[i] = append(placed[i], slices.Clone(st.Sites))
			}
		}
		fresh := make([]*Plan, len(s.built))
		for i, e := range s.built {
			v, err := c.q.Spec.Expand(c.q.Graph, e.variant.Tree)
			if err != nil {
				t.Fatal(err)
			}
			if fresh[i], err = FromLogical(v.Graph); err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s, variant %d %v", c.name, i, e.variant.Tree)
			if !slices.Equal(e.variant.CombineNodes, v.CombineNodes) {
				t.Fatalf("%s: CombineNodes %v, fresh %v", where, e.variant.CombineNodes, v.CombineNodes)
			}
			if err := samePlan(e.plan, fresh[i], placed[i], false, 0); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			for _, p := range []*Plan{e.plan, fresh[i]} {
				if err := denseStages(p); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
		}
		// Grow every list of every variant, each by its variant's own
		// marks: a probe operator wired both ways to every operator, and
		// two tasks on every stage.
		for i, e := range s.built {
			g := e.variant.Graph
			probe := g.AddOperator(plan.Operator{Name: "probe", Kind: plan.KindMap})
			for _, id := range fresh[i].Graph.OperatorIDs() {
				g.MustConnect(id, probe)
				g.MustConnect(probe, id)
				st := e.plan.Stages[id]
				st.Sites = append(st.Sites, topology.SiteID(i), topology.SiteID(i))
			}
		}
		for i, e := range s.built {
			if err := samePlan(e.plan, fresh[i], placed[i], true, topology.SiteID(i)); err != nil {
				t.Fatalf("%s, variant %d %v, after growing every variant's lists: %v", c.name, i, e.variant.Tree, err)
			}
		}
	}
}

// denseStages reports a plan whose Stages is not one stage per operator
// of its graph, or whose Stage lookup answers an id outside them.
func denseStages(p *Plan) error {
	if len(p.Stages) != p.Graph.Len() {
		return fmt.Errorf("%d stages for %d operators", len(p.Stages), p.Graph.Len())
	}
	for id, st := range p.Stages {
		if st == nil || st.Op != p.Graph.Operator(plan.OpID(id)) {
			return fmt.Errorf("stage %d is %v, not operator %d's", id, st, id)
		}
	}
	for _, id := range []plan.OpID{-1, plan.OpID(len(p.Stages)), plan.OpID(len(p.Stages) + 7)} {
		if st := p.Stage(id); st != nil {
			return fmt.Errorf("Stage(%d) = %v, want nil", id, st)
		}
	}
	return nil
}

// samePlan reports how got, a session plan whose stages a round placed at
// placed, differs from want, the same tree expanded and staged alone.
// grown means got's graph has since gained a probe operator wired both
// ways to every operator, and every stage two tasks at site mark.
func samePlan(got, want *Plan, placed [][]topology.SiteID, grown bool, mark topology.SiteID) error {
	g, w := got.Graph, want.Graph
	if !grown {
		if g.Len() != w.Len() || !slices.Equal(g.OperatorIDs(), w.OperatorIDs()) {
			return fmt.Errorf("%d operators %v; fresh %d %v", g.Len(), g.OperatorIDs(), w.Len(), w.OperatorIDs())
		}
		gotOrder, gotErr := got.StageIDs()
		wantOrder, wantErr := want.StageIDs()
		if !slices.Equal(gotOrder, wantOrder) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Errorf("stage order %v (%v), fresh %v (%v)", gotOrder, gotErr, wantOrder, wantErr)
		}
		if gotErr, wantErr := g.Validate(), w.Validate(); fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Errorf("Validate: %v, fresh %v", gotErr, wantErr)
		}
	}
	probe := plan.OpID(w.Len())
	for _, id := range w.OperatorIDs() {
		a, b := g.Operator(id), w.Operator(id)
		if *a != *b {
			return fmt.Errorf("operator %d is %+v, fresh %+v", id, *a, *b)
		}
		wantDown, wantUp, wantSites := w.DownstreamView(id), w.UpstreamView(id), placed[id]
		if grown {
			wantDown = append(slices.Clone(wantDown), probe)
			wantUp = append(slices.Clone(wantUp), probe)
			wantSites = append(slices.Clone(wantSites), mark, mark)
		}
		if !slices.Equal(g.DownstreamView(id), wantDown) || !slices.Equal(g.UpstreamView(id), wantUp) {
			return fmt.Errorf("operator %d has down %v up %v, want %v and %v", id, g.DownstreamView(id), g.UpstreamView(id), wantDown, wantUp)
		}
		if st := got.Stages[id]; st.Op != a || !slices.Equal(st.Sites, wantSites) {
			return fmt.Errorf("stage %d is %+v, want operator %p at %v", id, *st, a, wantSites)
		}
	}
	return nil
}

// roundFunc is Session.Plan or Session.Rank.
type roundFunc func(*Session, *topology.Topology, PlannerConfig, func(*plan.Tree) bool) (*Candidate, []Candidate, error)

var roundFuncs = [...]struct {
	name  string
	round roundFunc
}{{"Plan", (*Session).Plan}, {"Rank", (*Session).Rank}}

// TestSessionPlanInfeasibleAllocs: a warm round that passes over variants
// no placement fits allocates no more than a round that ranks them all,
// and once at most, through Rank and through Plan. The in-round verdict
// on a stage or a variant builds no error.
func TestSessionPlanInfeasibleAllocs(t *testing.T) {
	s := mustSession(t, ysb8(), paperVariants)
	top := topology.Generate(topology.DefaultGenConfig(1))
	open := PlannerConfig{ScheduleConfig: ScheduleConfig{Bandwidth: perturbed(top, 0, 1, 1)}}
	squeezed := open
	squeezed.Bandwidth = perturbed(top, 0, 0.1, 1) // leaves 25 of the 40
	ranked := func(cfg PlannerConfig) int {
		_, all, err := s.Rank(top, cfg, nil)
		if err != nil && !errors.Is(err, ErrNoCandidate) {
			t.Fatal(err)
		}
		return len(all)
	}
	if n := ranked(open); n != len(s.view.trees) {
		t.Fatalf("the unsqueezed round ranks %d of %d variants", n, len(s.view.trees))
	}
	if n := ranked(squeezed); n == 0 || n == len(s.view.trees) {
		t.Fatalf("the squeezed round ranks %d of %d variants, want some and not all", n, len(s.view.trees))
	}
	for _, f := range roundFuncs {
		allocs := func(cfg PlannerConfig) float64 {
			_, _, _ = f.round(s, top, cfg, nil)
			return testing.AllocsPerRun(20, func() { _, candidatesSink, _ = f.round(s, top, cfg, nil) })
		}
		base, got := allocs(open), allocs(squeezed)
		if got > base || base > 1 {
			t.Fatalf("%s: a round that passes over variants allocates %v times, one over open links %v; want no more, and at most 1", f.name, got, base)
		}
	}
}

// TestSessionPlanDefaultBandwidthAllocs: a warm ysb8 round that leaves
// Bandwidth nil allocates no more than one given a Bandwidth hook, and
// once at most, through Plan and through Rank: the default hook, the
// topology's base bandwidth, is built once per topology, not once per
// round.
func TestSessionPlanDefaultBandwidthAllocs(t *testing.T) {
	s := mustSession(t, ysb8(), paperVariants)
	top := topology.Generate(topology.DefaultGenConfig(1))
	for _, f := range roundFuncs {
		round := func(cfg PlannerConfig) float64 {
			if _, _, err := f.round(s, top, cfg, nil); err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(20, func() { _, candidatesSink, _ = f.round(s, top, cfg, nil) })
		}
		given := round(PlannerConfig{ScheduleConfig: ScheduleConfig{Bandwidth: perturbed(top, 0, 1, 1)}})
		def := round(PlannerConfig{})
		t.Logf("%s: a warm round allocates %v times with the default Bandwidth, %v given a hook", f.name, def, given)
		if def > given || def > 1 {
			t.Fatalf("%s: a warm round with the default Bandwidth allocates %v times, one given a hook %v; want no more, and at most 1", f.name, def, given)
		}
	}
}

// TestSessionNamesStagesInErrors: a round that meets a malformed
// configuration returns the error Schedule returns for the same variant
// expanded alone, naming a combine stage by its template's name and leaf
// set. The round meets it on the variant it evaluates first, last round's
// winner, which the test sets to several trees.
func TestSessionNamesStagesInErrors(t *testing.T) {
	g, spec := fig5Query(t)
	top := fig5Topology(t)
	s, err := NewSession(g, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []ScheduleConfig{{DefaultParallelism: -1}, {Alpha: 2}} {
		for _, hint := range []int{0, 4, len(s.view.trees) - 1} {
			s.hint = hint
			_, _, got := s.Plan(top, PlannerConfig{ScheduleConfig: bad}, nil)
			v, err := spec.Expand(g, s.view.trees[hint])
			if err != nil {
				t.Fatal(err)
			}
			p, err := FromLogical(v.Graph)
			if err != nil {
				t.Fatal(err)
			}
			want := Schedule(p, top, bad)
			if got == nil || want == nil || got.Error() != want.Error() {
				t.Fatalf("%+v, first variant %v: round error %v, Schedule's %v", bad, v.Tree, got, want)
			}
		}
	}
}

// TestScheduleInfeasibleErrors pins the error Schedule returns for a stage
// no placement fits, from either solver, whether the links or the slots
// fall short: the text, and that it wraps placement.ErrInfeasible.
func TestScheduleInfeasibleErrors(t *testing.T) {
	g, spec := fig5Query(t)
	top := fig5Topology(t)
	tree := plan.EnumerateTrees(len(spec.Inputs), 1)[0]
	trickle := func(from, to topology.SiteID) float64 {
		if from == to {
			return 1e12
		}
		return 1
	}
	for _, c := range []struct {
		name string
		cfg  ScheduleConfig
		want string
	}{
		{"links, exact", ScheduleConfig{Bandwidth: trickle, HierarchicalSites: -1},
			`schedule stage "join{2,3}": placement: no feasible placement: 1 of 1 tasks unplaced`},
		{"links, hierarchical", ScheduleConfig{Bandwidth: trickle, HierarchicalSites: 1},
			`schedule stage "join{2,3}": placement: no feasible placement: 1 of 1 tasks unplaced`},
		{"slots, exact", ScheduleConfig{DefaultParallelism: 40, HierarchicalSites: -1},
			`schedule stage "join{2,3}": placement: no feasible placement: 13 of 40 tasks unplaced`},
		{"slots, hierarchical", ScheduleConfig{DefaultParallelism: 40, HierarchicalSites: 1},
			`schedule stage "join{2,3}": placement: no feasible placement: 27 slots for 40 tasks`},
	} {
		v, err := spec.Expand(g, tree)
		if err != nil {
			t.Fatal(err)
		}
		p, err := FromLogical(v.Graph)
		if err != nil {
			t.Fatal(err)
		}
		err = Schedule(p, top, c.cfg)
		if err == nil || err.Error() != c.want || !errors.Is(err, placement.ErrInfeasible) {
			t.Errorf("%s: Schedule error %q (ErrInfeasible: %v), want %q wrapping it", c.name, err, errors.Is(err, placement.ErrInfeasible), c.want)
		}
	}
}

// TestPlanStopsVariantsThatCannotWin plans the same ysb8 rounds, on
// testbed seeds 1–4 at rate factors 0.6 and 1.7, each twice in a row,
// through Plan and through Rank on sessions of their own. Plan must never
// name a different best, and on every seed some round must list fewer
// candidates through Plan than through Rank. The totals of both are
// pinned: a change to the bound, the margin or the warm start moves them.
func TestPlanStopsVariantsThatCannotWin(t *testing.T) {
	const wantPlanned, wantRanked = 31, 414
	var planned, ranked int
	for seed := int64(1); seed <= 4; seed++ {
		top := topology.Generate(topology.DefaultGenConfig(seed))
		ps, rs := mustSession(t, ysb8(), paperVariants), mustSession(t, ysb8(), paperVariants)
		cut := false
		for _, rateFactor := range []float64{0.6, 0.6, 1.7, 1.7} {
			cfg := PlannerConfig{ScheduleConfig: ScheduleConfig{RateFactor: rateFactor}}
			best, pruned, err := ps.Plan(top, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, all, err := rs.Rank(top, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCandidate(best, want, 1); err != nil {
				t.Fatalf("seed %d rate ×%v: Plan's best is not Rank's: %v", seed, rateFactor, err)
			}
			planned += len(pruned)
			ranked += len(all)
			cut = cut || len(pruned) < len(all)
		}
		if !cut {
			t.Fatalf("seed %d: Plan listed as many candidates as Rank in every round", seed)
		}
	}
	if planned != wantPlanned || ranked != wantRanked {
		t.Fatalf("Plan listed %d candidates and Rank %d, want %d and %d", planned, ranked, wantPlanned, wantRanked)
	}
}
