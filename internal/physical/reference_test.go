package physical

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/wasp-stream/wasp/internal/placement"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
)

// refSchedule is Schedule as it stood before sessions shared the prefix,
// kept as the test oracle: one plan, every stage, free slots rebuilt from
// the topology, and the site list and the free-slot update each a walk of
// their own. It also returns the position in topological order of the
// stage that failed, or -1.
func refSchedule(p *Plan, top *topology.Topology, cfg ScheduleConfig) (int, error) {
	c := cfg.withDefaults(top)
	ws := c.Workspace
	if ws == nil {
		ws = &Workspace{}
		c.Workspace = ws
	}
	order, err := p.StageIDs()
	if err != nil {
		return -1, err
	}
	if err := p.Graph.ExpectedRatesBuf(c.RateFactor, &ws.rates); err != nil {
		return -1, err
	}
	outBytes := ws.rates.Bytes

	avail := make([]int, top.N())
	for s := range avail {
		avail[s] = top.Slots(topology.SiteID(s))
	}
	for _, id := range order {
		op := p.Stages[id].Op
		if op.PinnedSite != plan.NoSite {
			avail[op.PinnedSite] -= c.parallelismFor(op)
		}
	}

	for i, id := range order {
		st := p.Stages[id]
		par := c.parallelismFor(st.Op)
		if par < 1 {
			return i, fmt.Errorf("physical: stage %q parallelism %d < 1", st.Op.Name, par)
		}
		if st.Op.PinnedSite != plan.NoSite {
			avail[st.Op.PinnedSite] += par
		}
		pl, err := solveStage(p, id, par, avail, top, c, outBytes, outBytes[id], nil)
		if err != nil {
			return i, fmt.Errorf("schedule stage %q: %w", st.Op.Name, err)
		}
		st.Sites = st.Sites[:0]
		for s, n := range pl.TasksPerSite {
			for k := 0; k < n; k++ {
				st.Sites = append(st.Sites, topology.SiteID(s))
			}
		}
		for s, n := range pl.TasksPerSite {
			avail[s] -= n
		}
	}
	return -1, nil
}

// refRound counts what one refPlan round saw: the admissible variants, how
// many of them a stage of the shared prefix, or only one of the suffix,
// made infeasible, and how many it ranked.
type refRound struct {
	admitted, prefixInfeasible, suffixInfeasible, ranked int
}

// refPlan is Session.Plan as it stood before the shared prefix: every
// admissible variant scheduled from scratch by refSchedule.
func refPlan(s *Session, top *topology.Topology, cfg PlannerConfig, admit func(*plan.Variant) bool) ([]Candidate, refRound, error) {
	sc := cfg.ScheduleConfig
	if sc.Workspace == nil {
		sc.Workspace = &Workspace{}
	}
	var round refRound
	var candidates []Candidate
	for _, e := range s.entries {
		if admit != nil && !admit(e.variant) {
			continue
		}
		round.admitted++
		failed, err := refSchedule(e.plan, top, sc)
		if err != nil {
			if !errors.Is(err, placement.ErrInfeasible) {
				return nil, round, err
			}
			if failed < s.prefix {
				round.prefixInfeasible++
			} else {
				round.suffixInfeasible++
			}
			continue
		}
		delayVol, wan := estimateCost(e.plan, top, sc.Workspace.rates.Bytes, sc.Workspace)
		candidates = append(candidates, Candidate{
			Variant:        e.variant,
			Plan:           e.plan,
			DelayVolume:    delayVol,
			WANBytesPerSec: wan,
			Cost:           delayVol + wanWeight*wan,
		})
	}
	if round.ranked = len(candidates); round.ranked == 0 {
		return nil, round, ErrNoCandidate
	}
	slices.SortStableFunc(candidates, func(a, b Candidate) int { return cmp.Compare(a.Cost, b.Cost) })
	return candidates, round, nil
}

// sameCandidates reports how one round's ranked candidates differ from
// want's: in order, tree, every stage's sites, and the bits of every cost
// scaled by scale (1 when the two rounds saw the same inputs).
func sameCandidates(got []Candidate, gotErr error, want []Candidate, wantErr error, scale float64) error {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("error %v, want %v", gotErr, wantErr)
		}
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if gt, wt := g.Variant.Tree.String(), w.Variant.Tree.String(); gt != wt {
			return fmt.Errorf("rank %d: tree %s, want %s", i, gt, wt)
		}
		for _, id := range w.Plan.Graph.OperatorIDs() {
			if gs, ws := g.Plan.Stages[id].Sites, w.Plan.Stages[id].Sites; !slices.Equal(gs, ws) {
				return fmt.Errorf("rank %d (%s): stage %d at %v, want %v", i, w.Variant.Tree, id, gs, ws)
			}
		}
		for _, f := range [...]struct {
			name string
			g, w float64
		}{
			{"Cost", g.Cost, w.Cost},
			{"DelayVolume", g.DelayVolume, w.DelayVolume},
			{"WANBytesPerSec", g.WANBytesPerSec, w.WANBytesPerSec},
		} {
			if math.Float64bits(f.g) != math.Float64bits(f.w*scale) {
				return fmt.Errorf("rank %d (%s): %s %v, want %v", i, w.Variant.Tree, f.name, f.g, f.w*scale)
			}
		}
	}
	return nil
}

// planPair holds two sessions over one query: s is planned by
// Session.Plan, ref by refPlan. Both live across rounds, so that what a
// round leaves behind in a session is under test too.
type planPair struct{ s, ref *Session }

func newPlanPair(tb testing.TB, q *queries.Query, maxVariants int) planPair {
	return planPair{mustSession(tb, q, maxVariants), mustSession(tb, q, maxVariants)}
}

func mustSession(tb testing.TB, q *queries.Query, maxVariants int) *Session {
	tb.Helper()
	s, err := NewSession(q.Graph, q.Spec, maxVariants)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// round plans once each way, admitting only the variants that can take
// over from variant admitFrom of the session when admitFrom >= 0, and
// reports how the two differ.
func (pp planPair) round(top *topology.Topology, cfg PlannerConfig, admitFrom int) (refRound, error) {
	var admit func(*plan.Variant) bool
	if admitFrom >= 0 {
		cur := pp.ref.entries[admitFrom%len(pp.ref.entries)].variant
		admit = func(v *plan.Variant) bool { return v.AdmissibleFrom(cur) }
	}
	best, got, gotErr := pp.s.Plan(top, cfg, admit)
	want, r, wantErr := refPlan(pp.ref, top, cfg, admit)
	if err := sameCandidates(got, gotErr, want, wantErr, 1); err != nil {
		return r, err
	}
	if gotErr == nil && best.Plan != got[0].Plan {
		return r, errors.New("best is not the first candidate")
	}
	return r, nil
}

// perturbed is base bandwidth with every directed link scaled by its own
// factor in [lo, hi), hashed from seed and the link's ends.
func perturbed(top *topology.Topology, seed uint64, lo, hi float64) func(from, to topology.SiteID) float64 {
	return func(from, to topology.SiteID) float64 {
		x := seed + uint64(from)*0x9e3779b97f4a7c15 + uint64(to)*0xbf58476d1ce4e5b9
		x ^= x >> 31
		x *= 0x94d049bb133111eb
		x ^= x >> 29
		u := float64(x>>11) / (1 << 53)
		return top.BaseBandwidth(from, to).BytesPerSec() * (lo + (hi-lo)*u)
	}
}

// paperQueries builds ysb, top-k and eoi with n sources on the testbed's
// edge sites (8…) and the sink at site 0.
var paperQueries = [...]func(queries.Config) *queries.Query{
	queries.YSBCampaign, queries.TopKTopics, queries.EventsOfInterest,
}

func testbedQuery(qi, n int) *queries.Query {
	sites := make([]topology.SiteID, n)
	for i := range sites {
		sites[i] = topology.SiteID(8 + i)
	}
	return paperQueries[qi](queries.Config{SourceSites: sites})
}

// planet is one 1000-site GenerateScale topology (50 regions of a hub and
// 19 edge sites), generated once for every test that needs it.
var planet = sync.OnceValues(func() (*topology.Topology, error) {
	return topology.GenerateScale(topology.DefaultScaleConfig(5, 50, 19))
})

func planetTopology(tb testing.TB) *topology.Topology {
	tb.Helper()
	top, err := planet()
	if err != nil {
		tb.Fatal(err)
	}
	return top
}

// planetQuery builds query qi with a source on the first edge site of each
// of the first eight regions, the sink at site 0.
func planetQuery(top *topology.Topology, qi int) *queries.Query {
	var sites []topology.SiteID
	for _, members := range top.RegionSites()[:8] {
		sites = append(sites, members[1])
	}
	return paperQueries[qi](queries.Config{SourceSites: sites})
}

// TestSessionPlanMatchesReference: a round that places the shared prefix
// once must rank the same candidates, place every stage on the same sites
// and price each to the same bits as scheduling every variant from
// scratch. The sweep covers the three queries on 16-site testbeds and a
// 1000-site planet, per-link bandwidth ×0.2–2.4, with and without an
// admissibility filter, every solver dispatch, and enough load that some
// rounds lose only some variants to an infeasible suffix and others lose
// all of them to an infeasible prefix.
func TestSessionPlanMatchesReference(t *testing.T) {
	var rounds, partial, prefixFails int
	ranked := map[string]int{} // rounds with a candidate, per topology kind
	check := func(kind, name string, pp planPair, top *topology.Topology, cfg PlannerConfig, admitFrom int) {
		t.Helper()
		r, err := pp.round(top, cfg, admitFrom)
		if err != nil {
			t.Fatalf("%s %s: %v", kind, name, err)
		}
		rounds++
		if r.ranked > 0 {
			ranked[kind]++
		}
		if r.prefixInfeasible > 0 {
			prefixFails++
		}
		if r.suffixInfeasible > 0 && r.ranked > 0 {
			partial++
		}
	}
	settings := []struct {
		rateFactor  float64
		parallelism int
	}{{0.6, 1}, {1.7, 1}, {1, 2}}
	for topSeed := int64(1); topSeed <= 4; topSeed++ {
		top := topology.Generate(topology.DefaultGenConfig(topSeed))
		for qi := range paperQueries {
			pp := newPlanPair(t, testbedQuery(qi, 8), 40)
			for bw := uint64(0); bw < 2; bw++ {
				for _, set := range settings {
					for _, hier := range []int{0, -1, 1} {
						for _, admitFrom := range []int{-1, 17} {
							cfg := PlannerConfig{ScheduleConfig: ScheduleConfig{
								RateFactor:         set.rateFactor,
								DefaultParallelism: set.parallelism,
								Bandwidth:          perturbed(top, bw+uint64(topSeed)<<8, 0.2, 2.4),
								HierarchicalSites:  hier,
							}}
							name := fmt.Sprintf("%d q%d bw%d %+v hier %d admit %d", topSeed, qi, bw, set, hier, admitFrom)
							check("testbed", name, pp, top, cfg, admitFrom)
						}
					}
				}
			}
		}
	}
	top := planetTopology(t)
	for qi := range paperQueries {
		pp := newPlanPair(t, planetQuery(top, qi), 12)
		for bw := uint64(0); bw < 2; bw++ {
			for _, rateFactor := range []float64{0.7, 1.6} {
				for _, hier := range []int{0, -1, 1} {
					for _, admitFrom := range []int{-1, 5} {
						cfg := PlannerConfig{ScheduleConfig: ScheduleConfig{
							RateFactor:        rateFactor,
							Bandwidth:         perturbed(top, bw, 0.2, 2.4),
							HierarchicalSites: hier,
						}}
						name := fmt.Sprintf("q%d bw%d rate ×%v hier %d admit %d", qi, bw, rateFactor, hier, admitFrom)
						check("planet", name, pp, top, cfg, admitFrom)
					}
				}
			}
		}
	}
	t.Logf("%d rounds: %v with a candidate, %d of them short of some variants' suffixes, %d lost every variant to the prefix",
		rounds, ranked, partial, prefixFails)
	if partial == 0 || prefixFails == 0 || ranked["testbed"] == 0 || ranked["planet"] == 0 {
		t.Fatal("the sweep must reach rounds with candidates on both kinds of topology, partly infeasible suffixes and infeasible prefixes")
	}
}

// TestVariantsShareTheBasePrefix pins why the prefix is shared. Expand adds
// combine nodes after every base operator, so every combine id exceeds
// every base id; TopoOrder takes the smallest ready id, so every stage
// that no combine node feeds comes before the first one that is, in the
// same order in every variant; only sources and sinks are pinned. The
// session's prefix is exactly those stages.
func TestVariantsShareTheBasePrefix(t *testing.T) {
	for qi := range paperQueries {
		for n := 2; n <= 8; n++ {
			for _, maxVariants := range []int{12, 40, 105} {
				q := testbedQuery(qi, n)
				s := mustSession(t, q, maxVariants)
				name := fmt.Sprintf("q%d, %d sources, %d variants", qi, n, maxVariants)
				var first []plan.OpID
				for _, e := range s.entries {
					g := e.variant.Graph
					for id := range e.variant.CombineNodes {
						if id < plan.OpID(q.Graph.Len()) {
							t.Fatalf("%s, %s: combine node %d below base id %d", name, e.variant.Tree, id, q.Graph.Len())
						}
					}
					order, err := e.plan.StageIDs()
					if err != nil {
						t.Fatal(err)
					}
					// fed marks the stages with a combine node in their
					// upstream cone (themselves included).
					fed := make([]bool, g.Len())
					var free []plan.OpID
					for i, id := range order {
						_, fed[id] = e.variant.CombineNodes[id]
						for _, u := range g.UpstreamView(id) {
							fed[id] = fed[id] || fed[u]
						}
						if fed[id] {
							continue
						}
						if i != len(free) {
							t.Fatalf("%s, %s: stage %d, fed by no combine node, at position %d after a fed stage", name, e.variant.Tree, id, i)
						}
						free = append(free, id)
						if k := g.Operator(id).Kind; g.Operator(id).PinnedSite != plan.NoSite && k != plan.KindSource && k != plan.KindSink {
							t.Fatalf("%s: %v stage %d is pinned", name, k, id)
						}
					}
					if first == nil {
						first = free
					}
					if !slices.Equal(free, first) {
						t.Fatalf("%s, %s: prefix %v, first variant's %v", name, e.variant.Tree, free, first)
					}
				}
				if s.prefix != len(first) {
					t.Fatalf("%s: session prefix %d, want the %d stages no combine node feeds", name, s.prefix, len(first))
				}
				if n == 8 && s.prefix != 16 {
					t.Fatalf("%s: prefix %d, want 8 sources and 8 chains", name, s.prefix)
				}
			}
		}
	}
}

// TestPlanIsScaleInvariant is a metamorphic property of the planner:
// doubling every source rate and every link's bandwidth leaves each
// candidate's rank, tree and placement unchanged and doubles its costs
// exactly (×2 is exact in float64), on testbeds and on the planet.
func TestPlanIsScaleInvariant(t *testing.T) {
	type target struct {
		name        string
		top         *topology.Topology
		q           *queries.Query
		maxVariants int
	}
	var targets []target
	for topSeed := int64(1); topSeed <= 3; topSeed++ {
		top := topology.Generate(topology.DefaultGenConfig(topSeed))
		for qi := range paperQueries {
			targets = append(targets, target{fmt.Sprintf("testbed %d q%d", topSeed, qi), top, testbedQuery(qi, 8), 40})
		}
	}
	top := planetTopology(t)
	for qi := range paperQueries {
		targets = append(targets, target{fmt.Sprintf("planet q%d", qi), top, planetQuery(top, qi), 12})
	}
	var feasible int
	for _, tg := range targets {
		// Two sessions: the first round's candidates must outlive the second.
		s, s2 := mustSession(t, tg.q, tg.maxVariants), mustSession(t, tg.q, tg.maxVariants)
		for _, rateFactor := range []float64{0.5, 1, 2.3} {
			for bwSeed := uint64(0); bwSeed < 2; bwSeed++ {
				bw := perturbed(tg.top, bwSeed, 0.2, 2.4)
				cfg := PlannerConfig{ScheduleConfig: ScheduleConfig{RateFactor: rateFactor, Bandwidth: bw}}
				_, base, baseErr := s.Plan(tg.top, cfg, nil)
				cfg.RateFactor *= 2
				cfg.Bandwidth = func(from, to topology.SiteID) float64 { return 2 * bw(from, to) }
				_, doubled, doubledErr := s2.Plan(tg.top, cfg, nil)
				if err := sameCandidates(doubled, doubledErr, base, baseErr, 2); err != nil {
					t.Fatalf("%s rate ×%v bw %d, doubled: %v", tg.name, rateFactor, bwSeed, err)
				}
				if baseErr == nil {
					feasible++
				}
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no round had a candidate")
	}
}

// TestScheduleRejectsPinOutsideTopology: a stage pinned to a site the
// topology does not have is an error naming the stage and the site, not a
// panic, and not an infeasibility a planner would skip past.
func TestScheduleRejectsPinOutsideTopology(t *testing.T) {
	top := testTopology(t, 4)
	q := ysb8()
	_, _, err := PlanQuery(q.Graph, q.Spec, top, PlannerConfig{})
	const want = `physical: stage "ysb-src" pinned to site 8, outside the 4-site topology`
	if err == nil || err.Error() != want {
		t.Fatalf("PlanQuery = %v, want %s", err, want)
	}
	for _, site := range []topology.SiteID{-2, 4} {
		g := pipelineGraph(t)
		g.Operator(2).PinnedSite = site
		p, err := FromLogical(g)
		if err != nil {
			t.Fatal(err)
		}
		err = Schedule(p, top, ScheduleConfig{})
		want := fmt.Sprintf(`physical: stage "sink" pinned to site %d, outside the 4-site topology`, site)
		if err == nil || err.Error() != want || errors.Is(err, placement.ErrInfeasible) {
			t.Fatalf("pin %d: Schedule = %v, want %s", site, err, want)
		}
	}
}

// FuzzSessionPlanMatchesReference is TestSessionPlanMatchesReference on
// the fuzzer's bytes: the query, 2–8 sources, the variant cap, the rate
// factor, parallelism, a bandwidth seed and range, an optional variant to
// admit from, the testbed and the solver dispatch. Each input runs two
// rounds on the same sessions, the second at twice the rate.
func FuzzSessionPlanMatchesReference(f *testing.F) {
	f.Add([]byte{0, 6, 39, 48, 0, 1, 2, 3, 4, 5, 6, 7, 8, 40, 200, 18, 1})
	f.Add([]byte{1, 6, 39, 100, 1, 9, 9, 9, 9, 9, 9, 9, 9, 0, 255, 0, 2})
	f.Add([]byte{2, 3, 14, 64, 1, 7, 7, 7, 7, 7, 7, 7, 7, 100, 100, 3, 3})
	f.Add([]byte{0, 2, 5, 200, 2, 1, 1, 1, 1, 1, 1, 1, 1, 10, 10, 1, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		qi, n := int(next())%len(paperQueries), 2+int(next())%7
		maxVariants := 1 + int(next())%40
		rateFactor := 0.25 + float64(next())/64
		parallelism := 1 + int(next())%3
		var seed [8]byte
		for i := range seed {
			seed[i] = next()
		}
		lo := 0.1 + float64(next())/255*1.4
		hi := lo + float64(next())/255*2
		admitFrom := int(next()) - 1
		b := next()
		top := topology.Generate(topology.DefaultGenConfig(int64(b % 8)))
		hier := int(b>>3)%3 - 1

		pp := newPlanPair(t, testbedQuery(qi, n), maxVariants)
		cfg := PlannerConfig{ScheduleConfig: ScheduleConfig{
			RateFactor:         rateFactor,
			DefaultParallelism: parallelism,
			Bandwidth:          perturbed(top, binary.LittleEndian.Uint64(seed[:]), lo, hi),
			HierarchicalSites:  hier,
		}}
		for range 2 {
			if _, err := pp.round(top, cfg, admitFrom); err != nil {
				t.Fatal(err)
			}
			cfg.RateFactor *= 2
		}
	})
}
