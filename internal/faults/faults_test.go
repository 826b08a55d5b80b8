package faults

import (
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

func TestParseScript(t *testing.T) {
	fs, err := Parse("crash@300s:site=3,for=120s; linkdown@100s:from=1,to=3,for=60s;slow@200s:site=2,factor=0.25 ; linkslow@50s:from=0,to=2,factor=0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: SiteCrash, At: 300 * time.Second, For: 120 * time.Second, Site: 3},
		{Kind: LinkDown, At: 100 * time.Second, For: 60 * time.Second, From: 1, To: 3},
		{Kind: SiteSlow, At: 200 * time.Second, Site: 2, Factor: 0.25},
		{Kind: LinkSlow, At: 50 * time.Second, From: 0, To: 2, Factor: 0.5},
	}
	if len(fs) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(fs), len(want))
	}
	for i := range want {
		if fs[i] != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, fs[i], want[i])
		}
	}
}

// docExamples returns the package comment's example clause of every kind
// in the table, in table order. A kind the comment does not show fails the
// test, so the comment cannot fall behind the table — and every test that
// walks the examples covers every row.
func docExamples(t testing.TB) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "faults.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(file.Doc.Text(), "\n")
	examples := make([]string, len(kinds))
	for k, row := range kinds {
		i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "\t"+row.names[0]+"@") })
		if i < 0 {
			t.Fatalf("package comment has no example line for kind %q", row.names[0])
		}
		examples[k] = strings.TrimSpace(lines[i])
	}
	return examples
}

// joined renders a schedule the way experiment.FaultScript does.
func joined(fs []Fault) string {
	specs := make([]string, len(fs))
	for i, f := range fs {
		specs[i] = f.String()
	}
	return strings.Join(specs, "; ")
}

// Every row of the table round-trips: its example parses to a fault of that
// kind, and the fault's rendering — as is, with its window flipped on or
// off, under each alias — parses back to the same fault.
func TestParseRoundTripsThroughString(t *testing.T) {
	for k, example := range docExamples(t) {
		row := kinds[k]
		fs, err := Parse(example)
		if err != nil || len(fs) != 1 || fs[0].Kind != Kind(k) {
			t.Errorf("example %q parsed to %+v, %v", example, fs, err)
			continue
		}
		flipped := fs[0]
		flipped.For = 0
		if fs[0].For == 0 || row.needsFor {
			flipped.For = 90 * time.Second
		}
		for _, want := range []Fault{fs[0], flipped} {
			for _, name := range row.names {
				spec := name + strings.TrimPrefix(want.String(), row.names[0])
				got, err := Parse(spec)
				if err != nil || len(got) != 1 || got[0] != want {
					t.Errorf("round trip %q -> %+v, %v; want %+v", spec, got, err, want)
				}
			}
		}
	}
}

func TestParseRejectsBadScripts(t *testing.T) {
	for _, s := range badScripts {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
	// A stray parameter's error names the kind and the key.
	_, err := Parse("linkdown@10s:from=1,to=2,factor=7")
	if err == nil || !strings.Contains(err.Error(), "linkdown") || !strings.Contains(err.Error(), `"factor"`) {
		t.Errorf("error %v does not name the kind and the stray key", err)
	}
	// Each parameter of a row is required, and so is an outage's window.
	for k, example := range docExamples(t) {
		head, params, _ := strings.Cut(example, ":")
		kvs := strings.Split(params, ",")
		for i, kv := range kvs {
			if strings.HasPrefix(kv, "for=") && !kinds[k].needsFor {
				continue
			}
			s := head + ":" + strings.Join(slices.Delete(slices.Clone(kvs), i, i+1), ",")
			if _, err := Parse(s); err == nil {
				t.Errorf("Parse(%q) accepted without %s", s, kv)
			}
		}
	}
	// Empty and all-whitespace scripts are valid no-ops.
	for _, s := range []string{"", " ; ;"} {
		fs, err := Parse(s)
		if err != nil || len(fs) != 0 {
			t.Errorf("Parse(%q) = %v, %v; want empty", s, fs, err)
		}
	}
}

var badScripts = []string{
	"crash:site=3",                      // no @time
	"melt@10s:site=1",                   // unknown kind
	"crash@abc:site=1",                  // bad time
	"crash@10s",                         // missing site
	"crash@10s:sight=1",                 // unknown key
	"crash@10s:site=x",                  // bad site
	"crash@10s:site=1,site=2",           // duplicate key
	"crash@10s:site=1,for=-5s",          // negative duration
	"slow@10s:site=1",                   // missing factor
	"slow@10s:site=1,factor=1.5",        // factor out of range
	"slow@10s:site=1,factor=NaN",        // not a number
	"linkdown@10s:from=1",               // missing to
	"linkdown@10s:from=1,to=1",          // self link
	"linkslow@10s:from=1,to=2",          // missing factor
	"linkslow@10s:from=1,to=2,factor=0", // factor out of range
	"crash@10s:site",                    // not key=value
	"outage@10s",                        // an outage cannot be permanent
	"opslow@10s:op=1,factor=0.5",        // missing site
	// A key that is not in the kind's row is an error, not a dropped value.
	"crash@10s:site=1,region=4,delay=3s",
	"telemloss@10s:rate=0.5,site=99",
	"linkdown@10s:from=1,to=2,factor=7",
	"outage@10s:site=1,for=5s",
}

// A for=0s or negative window is a script mistake, not a permanent
// fault: it must be rejected, and the error must carry the 1-based
// script position of the offending fault so multi-fault scripts are
// debuggable.
func TestParseRejectsNonPositiveWindows(t *testing.T) {
	cases := []struct {
		script   string
		position string // "fault N" fragment the error must name
	}{
		{"crash@10s:site=1,for=0s", "fault 1"},
		{"crash@10s:site=1,for=-5s", "fault 1"},
		{"crash@10s:site=1,for=30s; slow@20s:site=2,factor=0.5,for=0s", "fault 2"},
		{"crash@10s:site=1,for=30s; linkdown@20s:from=0,to=1,for=40s; ctrldown@30s:region=1,for=-1ms", "fault 3"},
	}
	for _, c := range cases {
		_, err := Parse(c.script)
		if err == nil {
			t.Errorf("Parse(%q) accepted a non-positive for= window", c.script)
			continue
		}
		if !strings.Contains(err.Error(), c.position) {
			t.Errorf("Parse(%q) error %q does not name %s", c.script, err, c.position)
		}
		if !strings.Contains(err.Error(), "must be positive") {
			t.Errorf("Parse(%q) error %q does not explain the constraint", c.script, err)
		}
	}
}

// deployRig builds src(site0) → map(site1) → sink(site1) over three
// 80 Mbps sites, all on the virtual clock.
func deployRig(t *testing.T) (*engine.Engine, *netsim.Network, *vclock.Scheduler) {
	t.Helper()
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 100, SourceRate: 1000,
	})
	mp := g.AddOperator(plan.Operator{
		Name: "map", Kind: plan.KindMap, Splittable: true,
		Selectivity: 1, OutEventBytes: 100, CostPerEvent: 1,
	})
	snk := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 1})
	g.MustConnect(src, mp)
	g.MustConnect(mp, snk)
	return deployGraph(t, g)
}

// deployGraph deploys g over three 80 Mbps sites, all on the virtual
// clock: each pinned operator at its site, every other one at site 1.
func deployGraph(t *testing.T, g *plan.Graph) (*engine.Engine, *netsim.Network, *vclock.Scheduler) {
	t.Helper()
	const n = 3
	sites := make([]topology.Site, n)
	lat := make([][]time.Duration, n)
	bw := make([][]topology.Mbps, n)
	for i := 0; i < n; i++ {
		sites[i] = topology.Site{ID: topology.SiteID(i), Name: "s", Kind: topology.DataCenter, Slots: 8}
		lat[i] = make([]time.Duration, n)
		bw[i] = make([]topology.Mbps, n)
		for j := 0; j < n; j++ {
			if i == j {
				bw[i][j] = 100000
				lat[i][j] = time.Millisecond
				continue
			}
			bw[i][j] = 80
			lat[i][j] = 40 * time.Millisecond
		}
	}
	top, err := topology.New(sites, lat, bw)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	eng := engine.New(engine.Config{}, top, net, sched)
	pp, err := physical.FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range g.OperatorIDs() {
		site := g.Operator(id).PinnedSite
		if site == plan.NoSite {
			site = 1
		}
		pp.Stages[id].Sites = []topology.SiteID{site}
	}
	if err := eng.Deploy(pp); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	return eng, net, sched
}

type recordingRecoverer struct {
	crashes []topology.SiteID
}

func (r *recordingRecoverer) OnSiteCrash(s topology.SiteID) { r.crashes = append(r.crashes, s) }

func TestInjectorAppliesAndHealsFaults(t *testing.T) {
	eng, net, sched := deployRig(t)
	inj := NewInjector(eng, net, nil)
	rec := &recordingRecoverer{}
	inj.SetRecoverer(rec)

	// op=1 is the rig's map; at 2% of a 25000 ev/s slot it processes at
	// most 500 ev/s of the 1000 ev/s the source sends it.
	script := "crash@10s:site=1,for=20s; linkslow@5s:from=0,to=1,factor=0.5,for=10s; slow@5s:site=2,factor=0.5,for=10s; " +
		"outage@50s:for=10s; opslow@70s:op=1,site=1,factor=0.02,for=20s"
	fs, err := Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Schedule(sched, fs); err != nil {
		t.Fatal(err)
	}

	if err := sched.RunUntil(vclock.Time(12 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !eng.SiteDown(1) {
		t.Fatal("site 1 not down at t=12s")
	}
	if len(rec.crashes) != 1 || rec.crashes[0] != 1 {
		t.Fatalf("recoverer saw crashes %v, want [1]", rec.crashes)
	}
	if got := net.Capacity(0, 1, sched.Now()); got != 5e6 {
		t.Fatalf("degraded 0→1 capacity = %v, want 5e6", got)
	}

	if err := sched.RunUntil(vclock.Time(16 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := net.Capacity(0, 1, sched.Now()); got != 10e6 {
		t.Fatalf("healed 0→1 capacity = %v, want 1e7", got)
	}
	if !eng.SiteDown(1) {
		t.Fatal("site 1 healed early")
	}

	if err := sched.RunUntil(vclock.Time(40 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if eng.SiteDown(1) {
		t.Fatal("site 1 still down after its restart at t=30s")
	}
	if len(rec.crashes) != 1 {
		t.Fatalf("restart re-notified the recoverer: %v", rec.crashes)
	}

	if eng.Failed() {
		t.Fatal("engine failed before the outage at t=50s")
	}
	if err := sched.RunUntil(vclock.Time(55 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !eng.Failed() {
		t.Fatal("engine not failed at t=55s, inside the outage")
	}

	// mapRate is the map's processing rate over [from, to).
	mapRate := func(from, to time.Duration) float64 {
		t.Helper()
		if err := sched.RunUntil(vclock.Time(from)); err != nil {
			t.Fatal(err)
		}
		eng.Sample()
		if err := sched.RunUntil(vclock.Time(to)); err != nil {
			t.Fatal(err)
		}
		return eng.Sample().Ops[1].ProcessingRate
	}
	before := mapRate(61*time.Second, 70*time.Second)
	if eng.Failed() {
		t.Fatal("engine still failed after the outage ended at t=60s")
	}
	during := mapRate(71*time.Second, 89*time.Second)
	after := mapRate(91*time.Second, 110*time.Second)
	if before < 900 || during > 550 || after < 900 {
		t.Fatalf("map rate %v before, %v during, %v after opslow; want ≥ 1000-ish, ≤ 500, ≥ 1000-ish", before, during, after)
	}
}

// The fault list a run arms is assembled from several sources (waspd:
// -fault plus -chaos-seed), each validated on its own; Schedule is where
// they meet, so Schedule is what must see an overlap between them. Were the
// pair below armed, the second's heal at t=30s would lift the first, which
// holds the link at half capacity until t=110s.
func TestScheduleRejectsOverlapAcrossSources(t *testing.T) {
	eng, net, sched := deployRig(t)
	var fs []Fault
	for _, script := range []string{
		"linkslow@10s:from=0,to=1,factor=0.5,for=100s",
		"linkslow@20s:from=0,to=1,factor=0.25,for=10s",
	} {
		part, err := Parse(script)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, part...)
	}
	err := NewInjector(eng, net, nil).Schedule(sched, fs)
	if err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("Schedule(%s) = %v, want an overlap error", joined(fs), err)
	}
	if err := sched.RunUntil(vclock.Time(15 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := net.Capacity(0, 1, sched.Now()); got != 10e6 {
		t.Fatalf("0→1 capacity = %v at t=15s: the rejected schedule armed its first fault", got)
	}
}

func TestScheduleRejectsInvalidFault(t *testing.T) {
	eng, net, sched := deployRig(t)
	inj := NewInjector(eng, net, nil)
	err := inj.Schedule(sched, []Fault{{Kind: SiteSlow, At: time.Second, Site: 1, Factor: 2}})
	if err == nil {
		t.Fatal("invalid fault scheduled")
	}
}

func TestScheduleRejectsSitesOutsideTopology(t *testing.T) {
	eng, net, sched := deployRig(t)
	inj := NewInjector(eng, net, nil)
	for _, f := range []Fault{
		{Kind: SiteCrash, At: time.Second, Site: 99},
		{Kind: SiteSlow, At: time.Second, Site: -1, Factor: 0.5},
		{Kind: LinkDown, At: time.Second, From: 0, To: 3},
		{Kind: LinkSlow, At: time.Second, From: 7, To: 0, Factor: 0.5},
		{Kind: OpSlow, At: time.Second, Op: 1, Site: 3, Factor: 0.5},
		{Kind: OpSlow, At: time.Second, Op: 3, Site: 1, Factor: 0.5}, // the rig's plan has stages 0..2
	} {
		if err := inj.Schedule(sched, []Fault{f}); err == nil {
			t.Errorf("%s: scheduled on a deployment that has no such site or operator", f)
		}
	}
}

// TestScheduleRejectsOpsOutsideThePlan: an op= that names no stage of the
// deployed plan — negative or past the end of its stages — is refused,
// and always with one text.
func TestScheduleRejectsOpsOutsideThePlan(t *testing.T) {
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 100, SourceRate: 1000,
	})
	un := g.AddOperator(plan.Operator{Name: "union", Kind: plan.KindUnion, Selectivity: 1, OutEventBytes: 100})
	snk := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 1})
	g.MustConnect(src, un)
	g.MustConnect(un, snk)
	eng, net, sched := deployGraph(t, g)
	inj := NewInjector(eng, net, nil)
	for _, op := range []plan.OpID{-1, plan.OpID(g.Len()), plan.OpID(g.Len() + 7)} {
		f := Fault{Kind: OpSlow, At: time.Second, For: time.Second, Op: op, Site: 1, Factor: 0.5}
		want := fmt.Sprintf("faults: %s: op %d is not a stage of the deployed plan", f.Kind, op)
		if err := inj.Schedule(sched, []Fault{f}); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", f, err, want)
		}
	}
	ok := Fault{Kind: OpSlow, At: time.Second, For: time.Second, Op: un, Site: 1, Factor: 0.5}
	if err := inj.Schedule(sched, []Fault{ok}); err != nil {
		t.Errorf("%s: %v", ok, err)
	}
}

// No input panics the parser, and every script it accepts means what its
// rendering means: re-parsing the rendered schedule gives the same faults.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		fs, err := Parse(script)
		if err != nil {
			return
		}
		for _, x := range fs {
			if got, want := x.String(), fmtString(x); got != want {
				t.Fatalf("Parse(%q): fault renders %q; the fmt renderer gives %q", script, got, want)
			}
		}
		again, err := Parse(joined(fs))
		if err != nil || !slices.Equal(fs, again) {
			t.Fatalf("Parse(%q) = %+v, but its rendering %q parses to %+v, %v", script, fs, joined(fs), again, err)
		}
	})
}

// parseSeeds is FuzzParse's seed corpus: every kind's example, the bad
// scripts, and one script of aliases, odd spacing and an empty clause.
func parseSeeds(t testing.TB) []string {
	return append(append(docExamples(t), badScripts...),
		"crash@10s:site=1,for=20s; SLOW @ 30s : Site = 1 , factor=5e-1 ;; blackout@0:from=2,to=0")
}

// fmtString is Fault.String as reflection and fmt.Sprint rendered it
// before String appended each field itself.
func fmtString(f Fault) string {
	var kv []string
	for _, p := range kinds[f.Kind].params {
		kv = append(kv, p.key+"="+fmt.Sprint(reflect.ValueOf(p.at(&f)).Elem()))
	}
	if f.For > 0 {
		kv = append(kv, "for="+f.For.String())
	}
	return fmt.Sprintf("%s@%s:%s", f.Kind, f.At, strings.Join(kv, ","))
}

// String, and each parameter's render, write byte for byte what the fmt
// renderer wrote: for every kind over a table of values, out-of-range and
// non-finite ones included, and for every fault FuzzParse's seeds parse to.
func TestStringMatchesFmtRenderer(t *testing.T) {
	check := func(f Fault) {
		t.Helper()
		if got, want := f.String(), fmtString(f); got != want {
			t.Errorf("%+v renders %q; the fmt renderer gives %q", f, got, want)
		}
		for _, p := range kinds[f.Kind].params {
			if got, want := p.render(f), fmt.Sprint(reflect.ValueOf(p.at(&f)).Elem()); got != want {
				t.Errorf("%+v: %s renders %q; the fmt renderer gives %q", f, p.key, got, want)
			}
		}
	}
	durs := []time.Duration{0, time.Nanosecond, 1500 * time.Millisecond, 90 * time.Minute, -time.Second, math.MaxInt64, math.MinInt64}
	sites := []topology.SiteID{0, 3, -1, 1 << 40, math.MinInt}
	floats := []float64{0.5, 0.25, 1e-300, 5e-324, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1.2345678901234569e+23, 1e21, 1e-5, 3}
	ints := []int{0, 7, -2, math.MaxInt}
	for k := range kinds {
		for i := range 24 {
			check(Fault{
				Kind: Kind(k), At: durs[i%len(durs)], For: durs[(i+3)%len(durs)],
				Site: sites[i%len(sites)], From: sites[(i+1)%len(sites)], To: sites[(i+2)%len(sites)],
				Factor: floats[i%len(floats)], Rate: floats[(i+5)%len(floats)],
				Region: ints[i%len(ints)], Delay: durs[(i+1)%len(durs)], Op: plan.OpID(ints[(i+1)%len(ints)]),
			})
		}
	}
	for _, script := range parseSeeds(t) {
		fs, err := Parse(script)
		if err != nil {
			continue
		}
		for _, f := range fs {
			check(f)
			f.For = 0
			check(f)
		}
	}
}
