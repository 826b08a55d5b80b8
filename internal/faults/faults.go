// Package faults models the perturbations a wide-area deployment suffers
// (§8.6): site crashes with restart, WAN link blackouts and degradations,
// stragglers, whole-deployment outages, and an impaired control plane. A
// Fault is a declarative description; the Injector schedules faults on the
// virtual clock, applies them to the engine, the network simulator and the
// control plane, and notifies a Recoverer (the adapt controller) so
// checkpoint-driven recovery can begin. The package also parses the waspd
// -fault flag DSL, one kind@time:key=value,... clause per fault:
//
//	crash@300s:site=3,for=120s
//	slow@200s:site=2,factor=0.25,for=400s
//	linkdown@100s:from=1,to=3,for=60s
//	linkslow@100s:from=1,to=3,factor=0.5
//	ctrldown@200s:region=1,for=120s
//	telemloss@100s:rate=0.5,for=300s
//	ctrldelay@100s:delay=2s,for=300s
//	outage@540s:for=60s
//	opslow@200s:op=18,site=4,factor=0.25,for=400s
//
// The ctrl* kinds and telemloss impair the simulated control plane
// (telemetry reports and controller commands) rather than the data plane,
// and require a run with the control plane enabled.
//
// Multiple faults are separated by semicolons. A kind takes exactly the
// parameters shown for it, all required. "for" schedules the heal (site
// restart, link repair, straggler recovery); without it the fault is
// permanent, which an outage cannot be.
package faults

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Kind enumerates the fault types. Everything a kind is — its DSL name,
// parameters, overlap target and effect — is its row of the kinds table.
type Kind int

const (
	// SiteCrash kills a site: every task group on it is lost and must be
	// recovered from checkpoints elsewhere. "for" restarts the site
	// (empty) after the outage.
	SiteCrash Kind = iota
	// SiteSlow degrades a site's compute capacity to Factor — a
	// straggler affecting every task group on the site.
	SiteSlow
	// LinkDown blacks out the directed From→To WAN link.
	LinkDown
	// LinkSlow degrades the directed From→To WAN link to Factor of its
	// trace-driven capacity.
	LinkSlow
	// CtrlDown partitions one control-plane region from the controller:
	// its telemetry reports and the controller's commands toward it are
	// lost for the window. Requires a control plane (SetControlPlane).
	CtrlDown
	// TelemLoss drops each telemetry report independently with
	// probability Rate for the window. Requires a control plane.
	TelemLoss
	// CtrlDelay adds Delay to every control-plane message in both
	// directions for the window. Requires a control plane.
	CtrlDelay
	// Outage revokes every resource of the deployment for the For window
	// (§8.6): processing and data movement stop, arrivals accumulate.
	Outage
	// OpSlow degrades operator Op's tasks at Site to Factor of their
	// capacity — one slow task (§1), where SiteSlow is a slow machine.
	OpSlow
)

func (k Kind) String() string {
	if !k.known() {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kinds[k].names[0]
}

// known reports whether the kind has a row; Validate rejects one without.
func (k Kind) known() bool { return k >= 0 && int(k) < len(kinds) }

// Fault is one scheduled failure.
type Fault struct {
	Kind Kind
	// At is when the fault strikes (virtual time).
	At time.Duration
	// For, when positive, heals the fault after this long: site restart,
	// link repair, straggler recovery, end of the outage. Zero means
	// permanent.
	For time.Duration
	// Site is the victim of SiteCrash/SiteSlow/OpSlow.
	Site topology.SiteID
	// From/To name the directed link of LinkDown/LinkSlow.
	From, To topology.SiteID
	// Factor is the capacity fraction for SiteSlow/LinkSlow/OpSlow
	// (0 < f < 1).
	Factor float64
	// Region is the control-plane region CtrlDown partitions.
	Region int
	// Rate is the TelemLoss report drop probability (0 < r ≤ 1).
	Rate float64
	// Delay is the CtrlDelay per-message added latency (> 0).
	Delay time.Duration
	// Op is the operator OpSlow degrades, a stage of the deployed plan.
	Op plan.OpID
}

// param is one key=value parameter of the DSL.
type param struct {
	key string
	// at addresses the Fault field the parameter fills. The field's type
	// decides the text form (parse, render) and, for a site or an operator,
	// that Schedule looks for it on the deployment.
	at func(*Fault) any
	// ok reports whether the value is in range on its own (nil: any value
	// is); complaint says what is wrong with one that is not.
	ok        func(Fault) bool
	complaint string
}

// The parameters, shared between the kinds that take them; pFor is the
// window every kind accepts.
var (
	pSite = param{key: "site", at: func(f *Fault) any { return &f.Site }}
	pFrom = param{key: "from", at: func(f *Fault) any { return &f.From }}
	pTo   = param{"to", func(f *Fault) any { return &f.To },
		func(f Fault) bool { return f.To != f.From }, "equals from"}
	pFactor = param{"factor", func(f *Fault) any { return &f.Factor },
		func(f Fault) bool { return f.Factor > 0 && f.Factor < 1 }, "not in (0,1)"}
	pRegion = param{"region", func(f *Fault) any { return &f.Region },
		func(f Fault) bool { return f.Region >= 0 }, "negative"}
	pRate = param{"rate", func(f *Fault) any { return &f.Rate },
		func(f Fault) bool { return f.Rate > 0 && f.Rate <= 1 }, "not in (0,1]"}
	pDelay = param{"delay", func(f *Fault) any { return &f.Delay },
		func(f Fault) bool { return f.Delay > 0 }, "not positive"}
	pOp  = param{key: "op", at: func(f *Fault) any { return &f.Op }}
	pFor = param{key: "for", at: func(f *Fault) any { return &f.For }}
)

// parse stores the value's text form into the fault.
func (p param) parse(f *Fault, val string) (err error) {
	switch x := p.at(f).(type) {
	case *float64:
		*x, err = strconv.ParseFloat(val, 64)
	case *time.Duration:
		*x, err = time.ParseDuration(val)
	default: // the integer-valued fields: a site, an operator, a region
		var n int
		n, err = strconv.Atoi(val)
		reflect.ValueOf(x).Elem().SetInt(int64(n))
	}
	return err
}

// render is the inverse of parse.
func (p param) render(f Fault) string { return fmt.Sprint(reflect.ValueOf(p.at(&f)).Elem()) }

// kindRow is everything one fault kind is.
type kindRow struct {
	// names is the DSL name followed by its aliases.
	names []string
	// params lists the kind's parameters in rendering order. Parse accepts
	// exactly these keys (and "for") and requires each of them.
	params []param
	// needsFor marks a kind with no permanent form: "for" is required.
	// ctrl marks one that acts on the control plane and so needs one.
	needsFor, ctrl bool
	// target names what the fault acts on: two faults with the same target
	// may not be active at the same time. Distinct targets never conflict
	// (a link fault composes with a crash of its endpoint, a slow operator
	// with its slow site).
	target func(f Fault) string
	// apply strikes the fault; heal reverses it at the end of its window.
	apply, heal func(in *Injector, f Fault)
}

func siteTarget(f Fault) string       { return fmt.Sprintf("site %d", int(f.Site)) }
func linkTarget(f Fault) string       { return fmt.Sprintf("link %d→%d", int(f.From), int(f.To)) }
func clearLink(in *Injector, f Fault) { in.net.ClearLinkFault(f.From, f.To) }

// kinds is the fault-kind table, indexed by Kind. No other code in the
// package knows one kind from another.
var kinds = [...]kindRow{
	SiteCrash: {
		names:  []string{"crash"},
		params: []param{pSite},
		target: siteTarget,
		apply: func(in *Injector, f Fault) {
			in.eng.CrashSite(f.Site)
			if in.rec != nil {
				in.rec.OnSiteCrash(f.Site)
			}
		},
		heal: func(in *Injector, f Fault) { in.eng.RestoreSite(f.Site) },
	},
	SiteSlow: {
		names:  []string{"slow", "straggle", "straggler"},
		params: []param{pSite, pFactor},
		target: siteTarget,
		apply:  func(in *Injector, f Fault) { in.eng.SetSiteStraggler(f.Site, f.Factor) },
		heal:   func(in *Injector, f Fault) { in.eng.SetSiteStraggler(f.Site, 1) },
	},
	LinkDown: {
		names:  []string{"linkdown", "blackout"},
		params: []param{pFrom, pTo},
		target: linkTarget,
		apply:  func(in *Injector, f Fault) { in.net.SetLinkFault(f.From, f.To, 0) },
		heal:   clearLink,
	},
	LinkSlow: {
		names:  []string{"linkslow"},
		params: []param{pFrom, pTo, pFactor},
		target: linkTarget,
		apply:  func(in *Injector, f Fault) { in.net.SetLinkFault(f.From, f.To, f.Factor) },
		heal:   clearLink,
	},
	CtrlDown: {
		names:  []string{"ctrldown"},
		params: []param{pRegion},
		ctrl:   true,
		target: func(f Fault) string { return fmt.Sprintf("ctrl region %d", f.Region) },
		apply:  func(in *Injector, f Fault) { in.ctrl.SetRegionPartition(f.Region, true) },
		heal:   func(in *Injector, f Fault) { in.ctrl.SetRegionPartition(f.Region, false) },
	},
	TelemLoss: {
		names:  []string{"telemloss"},
		params: []param{pRate},
		ctrl:   true,
		target: func(Fault) string { return "telemetry" },
		apply:  func(in *Injector, f Fault) { in.ctrl.SetLossRate(f.Rate) },
		heal:   func(in *Injector, f Fault) { in.ctrl.SetLossRate(0) },
	},
	CtrlDelay: {
		names:  []string{"ctrldelay"},
		params: []param{pDelay},
		ctrl:   true,
		target: func(Fault) string { return "ctrl delay" },
		apply:  func(in *Injector, f Fault) { in.ctrl.SetExtraDelay(f.Delay) },
		heal:   func(in *Injector, f Fault) { in.ctrl.SetExtraDelay(0) },
	},
	Outage: {
		names:    []string{"outage"},
		needsFor: true,
		target:   func(Fault) string { return "deployment" },
		apply:    func(in *Injector, f Fault) { in.eng.Fail(vclock.Time(f.For)) },
		// The engine ends the outage it was given the length of.
		heal: func(*Injector, Fault) {},
	},
	OpSlow: {
		names:  []string{"opslow"},
		params: []param{pOp, pSite, pFactor},
		target: func(f Fault) string { return fmt.Sprintf("op %d at site %d", int(f.Op), int(f.Site)) },
		apply:  func(in *Injector, f Fault) { in.eng.InjectStraggler(f.Op, f.Site, f.Factor) },
		heal:   func(in *Injector, f Fault) { in.eng.InjectStraggler(f.Op, f.Site, 1) },
	},
}

// String renders the fault in the DSL syntax it parses from.
func (f Fault) String() string {
	var kv []string
	for _, p := range kinds[f.Kind].params {
		kv = append(kv, p.key+"="+p.render(f))
	}
	if f.For > 0 {
		kv = append(kv, "for="+f.For.String())
	}
	return fmt.Sprintf("%s@%s:%s", f.Kind, f.At, strings.Join(kv, ","))
}

// Validate checks the fault's parameters.
func (f Fault) Validate() error {
	if f.At < 0 {
		return fmt.Errorf("faults: %s: negative injection time", f.Kind)
	}
	if f.For < 0 {
		return fmt.Errorf("faults: %s: negative duration", f.Kind)
	}
	if !f.Kind.known() {
		return fmt.Errorf("faults: unknown kind %d", int(f.Kind))
	}
	row := &kinds[f.Kind]
	if row.needsFor && f.For == 0 {
		return fmt.Errorf("faults: %s requires for=", f.Kind)
	}
	for _, p := range row.params {
		if p.ok != nil && !p.ok(f) {
			return fmt.Errorf("faults: %s %s %s %s", f.Kind, p.key, p.render(f), p.complaint)
		}
	}
	return nil
}

func (f Fault) target() string { return kinds[f.Kind].target(f) }

// overlaps reports whether two active windows [At, At+For) intersect.
// For == 0 means permanent: the window never closes.
func overlaps(a, b Fault) bool {
	aEnd, bEnd := a.At+a.For, b.At+b.For
	if a.For == 0 {
		aEnd = 1<<63 - 1
	}
	if b.For == 0 {
		bEnd = 1<<63 - 1
	}
	return a.At < bEnd && b.At < aEnd
}

// ValidateSchedule rejects schedules with two faults active on the same
// target at the same time: the heal of the first would silently undo the
// second (every target holds one value), making the schedule's meaning
// order-dependent. Positions are 1-based, matching Parse's error style.
func ValidateSchedule(fs []Fault) error {
	for i := 1; i < len(fs); i++ {
		target := fs[i].target()
		for j := 0; j < i; j++ {
			if target != fs[j].target() || !overlaps(fs[i], fs[j]) {
				continue
			}
			return fmt.Errorf("fault %d %q overlaps fault %d %q on %s",
				i+1, fs[i].String(), j+1, fs[j].String(), target)
		}
	}
	return nil
}

// HasControlFaults reports whether any fault in the schedule acts on the
// control plane — such schedules need a Plane wired up before Schedule.
func HasControlFaults(fs []Fault) bool {
	return slices.ContainsFunc(fs, func(f Fault) bool { return kinds[f.Kind].ctrl })
}

// Recoverer reacts to detected failures — the adapt controller implements
// it to run checkpoint-driven recovery.
type Recoverer interface {
	// OnSiteCrash is invoked when a site crash is detected. The engine
	// has already torn the site down; the recoverer's job is to re-place
	// the dead tasks and restore their state.
	OnSiteCrash(site topology.SiteID)
}

// ControlPlane is the injector's hook into the simulated control plane
// (implemented by *ctrlplane.Plane). Without one, ctrl fault kinds are
// rejected at Schedule time.
type ControlPlane interface {
	NumRegions() int
	SetRegionPartition(region int, down bool)
	SetLossRate(rate float64)
	SetExtraDelay(d time.Duration)
}

// Injector applies scheduled faults to a deployment.
type Injector struct {
	eng  *engine.Engine
	net  *netsim.Network
	rec  Recoverer
	ctrl ControlPlane
	obs  *obs.Observer
}

// NewInjector creates an injector for one engine/network pair. The
// observer may be nil.
func NewInjector(eng *engine.Engine, net *netsim.Network, o *obs.Observer) *Injector {
	return &Injector{eng: eng, net: net, obs: o}
}

// SetRecoverer wires failure detection to a recoverer. Without one,
// crashes strike but nothing heals the placement (the no-recovery
// baseline).
func (in *Injector) SetRecoverer(r Recoverer) { in.rec = r }

// SetControlPlane wires ctrl fault kinds to an impaired control plane.
func (in *Injector) SetControlPlane(p ControlPlane) { in.ctrl = p }

// Schedule validates the faults — each on its own and against the
// deployment, then the whole list for overlaps, whatever sources it was
// assembled from — and arms every fault (and its heal) on the scheduler in
// a deterministic order: by injection time, then by list position.
func (in *Injector) Schedule(sched *vclock.Scheduler, fs []Fault) error {
	for _, f := range fs {
		if err := f.Validate(); err != nil {
			return err
		}
		row := &kinds[f.Kind]
		// A ctrl fault needs the plane, and its region — 0 for the kinds
		// that take none — must be one of the plane's.
		if row.ctrl && in.ctrl == nil {
			return fmt.Errorf("faults: %s requires an impaired control plane (enable it with -ctrl)", f.Kind)
		}
		if row.ctrl && f.Region >= in.ctrl.NumRegions() {
			return fmt.Errorf("faults: %s: region %d outside [0,%d)", f.Kind, f.Region, in.ctrl.NumRegions())
		}
		for _, p := range row.params {
			switch x := p.at(&f).(type) {
			case *topology.SiteID:
				if n := in.net.Topology().N(); *x < 0 || int(*x) >= n {
					return fmt.Errorf("faults: %s: %s %d outside the topology [0,%d)", f.Kind, p.key, int(*x), n)
				}
			case *plan.OpID:
				if _, deployed := in.eng.Plan().Stages[*x]; !deployed {
					return fmt.Errorf("faults: %s: %s %d is not a stage of the deployed plan", f.Kind, p.key, int(*x))
				}
			}
		}
	}
	if err := ValidateSchedule(fs); err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	ordered := slices.Clone(fs)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	for _, f := range ordered {
		sched.At(vclock.Time(f.At), func(vclock.Time) { in.strike("fault.inject", f, kinds[f.Kind].apply) })
		if f.For > 0 {
			sched.At(vclock.Time(f.At+f.For), func(vclock.Time) { in.strike("fault.heal", f, kinds[f.Kind].heal) })
		}
	}
	return nil
}

// strike records one edge of a fault's window and runs its action.
func (in *Injector) strike(event string, f Fault, action func(*Injector, Fault)) {
	if in.obs != nil {
		in.obs.Emit(event,
			obs.String("kind", f.Kind.String()),
			obs.String("spec", f.String()))
	}
	action(in, f)
}

// Parse reads a semicolon-separated fault script in the DSL documented at
// the top of the package. Beyond per-fault validation, the script as a
// whole must be coherent: faults whose active windows overlap on the same
// target are rejected with both positions named.
func Parse(s string) ([]Fault, error) {
	var out []Fault
	for i, tok := range strings.Split(s, ";") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		f, err := parseOne(tok)
		if err != nil {
			return nil, fmt.Errorf("fault %d %q: %w", i+1, tok, err)
		}
		out = append(out, f)
	}
	if err := ValidateSchedule(out); err != nil {
		return nil, err
	}
	return out, nil
}

// parseOne reads one `kind@at[:key=val,...]` clause.
func parseOne(s string) (Fault, error) {
	head, params, _ := strings.Cut(s, ":")
	kindStr, atStr, ok := strings.Cut(head, "@")
	if !ok {
		return Fault{}, fmt.Errorf("missing @time (want kind@time:params)")
	}
	name := strings.ToLower(strings.TrimSpace(kindStr))
	kind := Kind(slices.IndexFunc(kinds[:], func(r kindRow) bool { return slices.Contains(r.names, name) }))
	if kind < 0 {
		return Fault{}, fmt.Errorf("unknown fault kind %q", kindStr)
	}
	at, err := time.ParseDuration(strings.TrimSpace(atStr))
	if err != nil {
		return Fault{}, fmt.Errorf("bad time %q: %v", atStr, err)
	}
	f := Fault{Kind: kind, At: at}
	required := kinds[kind].params
	accepted := append(slices.Clip(required), pFor)

	seen := make(map[string]bool)
	if params != "" {
		for _, kv := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Fault{}, fmt.Errorf("bad parameter %q (want key=value)", kv)
			}
			key, val = strings.TrimSpace(strings.ToLower(key)), strings.TrimSpace(val)
			if seen[key] {
				return Fault{}, fmt.Errorf("duplicate parameter %q", key)
			}
			seen[key] = true
			i := slices.IndexFunc(accepted, func(p param) bool { return p.key == key })
			if i < 0 {
				return Fault{}, fmt.Errorf("%s has no parameter %q", kind, key)
			}
			if err := accepted[i].parse(&f, val); err != nil {
				return Fault{}, fmt.Errorf("bad %s %q", key, val)
			}
		}
	}
	for _, p := range required {
		if !seen[p.key] {
			return Fault{}, fmt.Errorf("%s requires %s=", kind, p.key)
		}
	}
	if seen["for"] && f.For <= 0 {
		// A zero or negative window would either schedule nothing or
		// silently mean "permanent" — both are script mistakes.
		return Fault{}, fmt.Errorf("for=%s is not a fault window (must be positive; omit for= for a permanent fault)", f.For)
	}
	return f, f.Validate()
}
