package faults

import (
	"go/parser"
	"go/token"
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
	pp.Stages[src].Sites = []topology.SiteID{0}
	pp.Stages[mp].Sites = []topology.SiteID{1}
	pp.Stages[snk].Sites = []topology.SiteID{1}
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

// No input panics the parser, and every script it accepts means what its
// rendering means: re-parsing the rendered schedule gives the same faults.
func FuzzParse(f *testing.F) {
	for _, s := range append(docExamples(f), badScripts...) {
		f.Add(s)
	}
	f.Add("crash@10s:site=1,for=20s; SLOW @ 30s : Site = 1 , factor=5e-1 ;; blackout@0:from=2,to=0")
	f.Fuzz(func(t *testing.T, script string) {
		fs, err := Parse(script)
		if err != nil {
			return
		}
		again, err := Parse(joined(fs))
		if err != nil || !slices.Equal(fs, again) {
			t.Fatalf("Parse(%q) = %+v, but its rendering %q parses to %+v, %v", script, fs, joined(fs), again, err)
		}
	})
}
