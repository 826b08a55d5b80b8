package engine

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// checkStore is the store oracle: the two slices are strictly sorted (so
// unique), the generation is stamped, and every derived pointer on the
// records equals what a from-scratch rewire() over a copy of the store
// produces. The copy shares plan, network and queues but not the group and
// flow records, so rewiring it leaves the engine untouched.
func (e *Engine) checkStore() error {
	if e.wired != e.gen {
		return fmt.Errorf("store gen %d, wiring stamped %d", e.gen, e.wired)
	}
	ref := &Engine{cfg: e.cfg, top: e.top, net: e.net, plan: e.plan, lastNow: e.lastNow}
	groupAt := make(map[*group]int, len(e.groups)) // reference record → store position
	for i, g := range e.groups {
		if i > 0 && !groupKeyLess(e.groups[i-1].key(), g.key()) {
			return fmt.Errorf("groups[%d] %+v not after %+v", i, g.key(), e.groups[i-1].key())
		}
		c := *g
		c.out, c.fan = nil, nil
		ref.groups = append(ref.groups, &c)
		groupAt[&c] = i
	}
	flowAt := make(map[*edgeFlow]int, len(e.flows))
	for i, f := range e.flows {
		if i > 0 && !flowKeyLess(e.flows[i-1].key, f.key) {
			return fmt.Errorf("flows[%d] %+v not after %+v", i, f.key, e.flows[i-1].key)
		}
		c := *f
		c.dst = nil
		ref.flows = append(ref.flows, &c)
		flowAt[&c] = i
	}
	ref.rewire()

	// same reports whether a live pointer is the store record at the
	// position of the reference pointer (nil matches nil).
	sameGroup := func(got, want *group) bool {
		if want == nil {
			return got == nil
		}
		return got == e.groups[groupAt[want]]
	}
	sameFlow := func(got, want *edgeFlow) bool {
		if want == nil {
			return got == nil
		}
		return got == e.flows[flowAt[want]]
	}
	sameGroups := func(got, want []*group) bool {
		return slices.EqualFunc(got, want, sameGroup)
	}

	if !slices.EqualFunc(e.stages, ref.stages, sameGroups) {
		return fmt.Errorf("stages differ from a fresh rewire")
	}
	if !sameGroups(e.srcs, ref.srcs) {
		return fmt.Errorf("srcs differ from a fresh rewire")
	}
	if !maps.Equal(e.frontOps, ref.frontOps) {
		return fmt.Errorf("frontOps %v, fresh rewire gives %v", e.frontOps, ref.frontOps)
	}
	if !slices.Equal(e.links, ref.links) || len(e.linkCaps) != len(e.links) {
		return fmt.Errorf("links %v (%d caps), fresh rewire gives %v", e.links, len(e.linkCaps), ref.links)
	}
	for i, f := range e.flows {
		want := ref.flows[i]
		if !sameGroup(f.dst, want.dst) || f.srcFront != want.srcFront || f.linkID != want.linkID {
			return fmt.Errorf("flow %+v wiring differs from a fresh rewire", f.key)
		}
	}
	for i, g := range e.groups {
		want := ref.groups[i]
		if g.front != want.front || !slices.EqualFunc(g.out, want.out, sameFlow) {
			return fmt.Errorf("group %+v front/out differ from a fresh rewire", g.key())
		}
		sameFan := func(got, want fanSite) bool {
			return got.share == want.share && sameGroup(got.dst, want.dst) && sameFlow(got.flow, want.flow)
		}
		if !slices.EqualFunc(g.fan, want.fan, sameFan) {
			return fmt.Errorf("group %+v fan differs from a fresh rewire", g.key())
		}
	}
	return nil
}

// runChecked advances the scheduler to `until` one event at a time,
// checking the store after every step — which turns every suite driven
// through it into a per-tick differential test of the wiring.
func runChecked(tb testing.TB, eng *Engine, sched *vclock.Scheduler, until time.Duration) {
	tb.Helper()
	check := func() {
		tb.Helper()
		if err := eng.checkStore(); err != nil {
			tb.Fatalf("t=%v: %v", time.Duration(sched.Now()), err)
		}
	}
	reached := false
	sched.At(vclock.Time(until), func(vclock.Time) { reached = true })
	for !reached && sched.Step() {
		check()
	}
	// Events other callbacks scheduled for exactly `until` still fire.
	if err := sched.RunUntil(vclock.Time(until)); err != nil {
		tb.Fatal(err)
	}
	check()
}
