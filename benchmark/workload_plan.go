package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"github.com/wasp-stream/wasp/internal/experiment"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
)

const (
	planRequestsPerSecond = 430.0
	planTestbeds          = 12 // 16-site topologies, each under all three queries
	planPlanets           = 2  // 1000-site topologies, top-k only
)

// planTarget is one (topology, query) pair requests are planned against, with
// the warm session that set-up expands for it.
type planTarget struct {
	name        string
	top         *topology.Topology
	query       *queries.Query
	maxVariants int
	session     *physical.Session
}

// planRequest is one seeded plan request: a target, a workload factor and a
// per-link bandwidth factor drawn from the §8.6 live-variation ranges.
type planRequest struct {
	target     *planTarget
	cold       bool // physical.PlanQuery from scratch instead of the warm session
	rateFactor float64
	bwSeed     uint64
	bwLo, bwHi float64
	// easy requests ask for no more than the unstressed probe that set-up
	// already passed (rate ≤ ×1, every link ≥ ×1): refusing one is wrong.
	easy bool
}

type planWorkload struct {
	requests []planRequest
}

func setupPlanStorm(seed int64, seconds float64) (instance, error) {
	var testbed, planet []*planTarget
	for t := 0; t < planTestbeds; t++ {
		for qi, pq := range paperQueries {
			sc, err := testbedCell(seed, "plan_storm", t*len(paperQueries)+qi, func(cs int64, top *topology.Topology) experiment.Scenario {
				return baseScenario(fmt.Sprintf("plan16-%d-%s", t, pq.name), cs, top, 0, pq.build)
			})
			if err != nil {
				return nil, err
			}
			testbed = append(testbed, &planTarget{name: sc.Name, top: sc.Topology, query: buildQuery(&sc), maxVariants: paperVariants})
		}
	}
	for t := 0; t < planPlanets; t++ {
		in, err := genScaleInput(seed, 1000+t)
		if err != nil {
			return nil, err
		}
		sc := scaleCell(in, t, 0)
		planet = append(planet, &planTarget{name: fmt.Sprintf("plan1000-%d", t), top: in.top, query: buildQuery(&sc), maxVariants: scaleVariants})
	}
	for _, tg := range append(slices.Clone(testbed), planet...) {
		s, err := physical.NewSession(tg.query.Graph, tg.query.Spec, tg.maxVariants)
		if err != nil {
			return nil, fmt.Errorf("%s: session: %w", tg.name, err)
		}
		tg.session = s
	}

	n := 20 * max(1, int(math.Round(seconds*planRequestsPerSecond/20)))
	rng := rand.New(rand.NewSource(cellSeed(seed, "plan_storm.requests", 0)))
	w := &planWorkload{}
	for i := 0; i < n; i++ {
		// 60 % warm and 20 % cold at 16 sites, 15 % warm and 5 % cold at
		// 1000 sites, interleaved in a fixed pattern of twenty.
		var req planRequest
		switch slot := i % 20; {
		case slot < 12:
			req.target = testbed[rng.Intn(len(testbed))]
		case slot < 16:
			req.target, req.cold = testbed[rng.Intn(len(testbed))], true
		case slot < 19:
			req.target = planet[rng.Intn(len(planet))]
		default:
			req.target, req.cold = planet[rng.Intn(len(planet))], true
		}
		req.rateFactor = 0.5 + 1.5*rng.Float64()
		req.bwSeed = rng.Uint64()
		req.bwLo, req.bwHi = 0.51, 2.36
		if i%10 == 3 {
			req.easy = true
			req.rateFactor = 0.5 + 0.5*rng.Float64()
			req.bwLo = 1
		}
		w.requests = append(w.requests, req)
	}
	return w, nil
}

// config is the planner configuration the request asks for. hierSites
// overrides the exact/hierarchical switch for the differential check.
func (r *planRequest) config(hierSites int) physical.PlannerConfig {
	cfg := plannerConfig(r.target.maxVariants)
	cfg.RateFactor = r.rateFactor
	cfg.HierarchicalSites = hierSites
	top, span := r.target.top, r.bwHi-r.bwLo
	cfg.Bandwidth = func(from, to topology.SiteID) float64 {
		x := r.bwSeed + uint64(from)*0x9e3779b97f4a7c15 + uint64(to)*0xbf58476d1ce4e5b9
		x ^= x >> 31
		x *= 0x94d049bb133111eb
		x ^= x >> 29
		u := float64(x>>11) / (1 << 53)
		return top.BaseBandwidth(from, to).BytesPerSec() * (r.bwLo + span*u)
	}
	return cfg
}

// plan serves the request and renders the answer as a results-table row.
func (r *planRequest) plan(cold bool, hierSites int) (string, error) {
	tg, cfg := r.target, r.config(hierSites)
	var best *physical.Candidate
	var err error
	if cold {
		best, _, err = physical.PlanQuery(tg.query.Graph, tg.query.Spec, tg.top, cfg)
	} else {
		best, _, err = tg.session.Plan(tg.top, cfg, nil)
	}
	if errors.Is(err, physical.ErrNoCandidate) {
		return "refused", nil
	}
	if err != nil {
		return "", err
	}
	if err := best.Plan.Validate(tg.top); err != nil {
		return "", err
	}
	ids, err := best.Plan.StageIDs()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tree=%v cost=%.9g wan=%.9g", best.Variant.Tree, best.Cost, best.WANBytesPerSec)
	for _, id := range ids {
		fmt.Fprintf(&b, " %d@%v", id, best.Plan.Stages[id].Sites)
	}
	return b.String(), nil
}

func (w *planWorkload) measure(m *meter, share float64) *outcome {
	out := newOutcome()
	n := max(20, int(share*float64(len(w.requests))))
	out.fullOps = int64(n)
	answers := make([]string, 0, n)
	m.start()
	for i := range w.requests[:n] {
		// The deadline is looked at between rounds of the request mix.
		if i%20 == 0 && m.expired() {
			break
		}
		req := &w.requests[i]
		var ans string
		err := guard(func() (err error) {
			ans, err = req.plan(req.cold, 0)
			return err
		})
		if err != nil {
			out.failf("request %d on %s: %v", i, req.target.name, err)
			ans = "error"
		}
		answers = append(answers, ans)
	}
	m.stop()
	out.ops = int64(len(answers))
	out.attempted = len(answers)
	for i, ans := range answers {
		req := &w.requests[i]
		out.rowf("%d %s cold=%v rate=%.6f %s", i, req.target.name, req.cold, req.rateFactor, ans)
		if ans == "refused" && req.easy {
			out.failf("request %d on %s refused although it asks less than the unstressed probe", i, req.target.name)
		}
		// A 5 % sample is solved again three ways: from scratch, with
		// the exact placement solver, and with the hierarchical one. All
		// must give the answer the timed request gave.
		if i%20 != 7 || ans == "error" {
			continue
		}
		for _, alt := range []struct {
			what      string
			hierSites int
		}{{"cold", 0}, {"exact", -1}, {"hierarchical", 1}} {
			out.attempted++
			var again string
			err := guard(func() (err error) {
				again, err = req.plan(true, alt.hierSites)
				return err
			})
			if err != nil || again != ans {
				out.failf("request %d on %s: %s re-solve differs: %q vs %q (%v)", i, req.target.name, alt.what, again, ans, err)
			}
		}
	}
	return out
}
