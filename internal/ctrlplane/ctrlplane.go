// Package ctrlplane carries WASP's control plane: per-site telemetry
// reports in, folded through one metrics.ReportMerger, and controller
// commands out. Every controller holds a Plane; only the transport varies.
// A local plane (NewLocal) pulls a fresh report per site at each Snapshot
// and applies commands inline, with no quarantine domains and no ctrl.*
// events or wasp_ctrl_* series. A WAN plane (New) is a first-class netsim
// tenant: reports and commands ride the data links, so they arrive late,
// out of order, or never. It quarantines a region once all its sites have
// gone silent past a partition threshold, and re-admits the region —
// bumping its epoch so zombie commands issued against the old view are
// fenced — when reports resume.
package ctrlplane

import (
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Sampler provides one telemetry report per site, ascending, an idle
// site's empty: *engine.Engine (SampleSites), or a fake in tests.
type Sampler interface {
	SampleSites() []metrics.SiteReport
}

// Network is the slice of netsim the control plane rides on: propagation
// delay and reachability. Implemented by *netsim.Network.
type Network interface {
	Latency(from, to topology.SiteID) time.Duration
	Reachable(from, to topology.SiteID, now vclock.Time) bool
}

// Config places a WAN control plane in a run.
type Config struct {
	// ControllerSite hosts the controller; reports flow site→controller
	// and commands controller→site over netsim links. The controller's
	// own site reports locally (never dropped, intra-site latency).
	ControllerSite topology.SiteID
	// Seed drives the telemetry-loss coin flips (deterministic per run).
	Seed int64
}

const (
	// reportEvery is the local-monitor report period (§8.2: site reports
	// every 10 s).
	reportEvery = 10 * time.Second
	// MaxStaleness bounds the evidence age diagnosis may act on: ops
	// whose sites are staler get a stale-telemetry reject instead of an
	// action, and stale sites are masked out of placement.
	MaxStaleness = 45 * time.Second
	// partitionAfter is the silence threshold after which a region whose
	// sites have ALL gone quiet is quarantined.
	partitionAfter = 60 * time.Second
	// commandTimeout is how long the supervisor waits for a command ack
	// before re-sending.
	commandTimeout = 30 * time.Second
	// commandRetries is how many re-sends a command gets before the
	// supervisor aborts it.
	commandRetries = 3
)

// Plane is one job's control plane: the controller-visible state (merged
// snapshot, per-site ages, quarantine set) between telemetry and commands.
// A WAN plane's report ticker and command channel ride the virtual clock,
// so every run is deterministic per seed.
type Plane struct {
	local   bool // NewLocal's transport
	cfg     Config
	sampler Sampler
	net     Network
	sched   *vclock.Scheduler
	obs     *obs.Observer
	rng     *detutil.Source // telemetry loss draws; nil on a local plane

	// Quarantine domains: topology regions when labeled, deterministic
	// latency clusters otherwise.
	regions  [][]topology.SiteID
	regionOf []int

	// Fault state (set by the injector through the ctrldown / telemloss /
	// ctrldelay kinds).
	ctrlDown   []bool
	lossRate   float64
	extraDelay time.Duration

	merger *metrics.ReportMerger
	// snap is the merged snapshot Snapshot refills and returns.
	snap          metrics.Snapshot
	quarantined   []bool
	quarantinedAt []vclock.Time
	epoch         []int

	// cmds holds the unresolved commands in issue order, and issued
	// counts every command sent: the next one's ID.
	cmds   []*Command
	issued int

	// free holds the in-flight report slots not on the wire.
	free []*inflight

	ticker       *vclock.Event
	wrongActions int
}

// inflight is one report crossing the WAN: a copy of the report in buffers
// the slot owns, the event that delivers it, and deliver bound to the slot
// once. A slot returns to the plane's free list when its report arrives.
type inflight struct {
	rep     metrics.SiteReport
	ev      vclock.Event
	deliver func(vclock.Time)
}

// Domains returns the quarantine domains a plane over top uses
// (topology.Domains). Exported so fault schedules (the ctrlchaos sweep, a
// -fault script author) can aim a ctrldown at a specific region without
// re-deriving the clustering.
func Domains(top *topology.Topology, _ Config) [][]topology.SiteID {
	return topology.Domains(top)
}

// NewLocal builds the zero-delay, zero-loss plane of a controller that
// shares the engine's process.
func NewLocal(sampler Sampler) *Plane {
	return &Plane{local: true, sampler: sampler, merger: metrics.NewReportMerger()}
}

// New builds a WAN plane over the run's topology, network and scheduler.
// The observer may be nil (events and counters become no-ops).
func New(cfg Config, sampler Sampler, net Network, top *topology.Topology, sched *vclock.Scheduler, o *obs.Observer) *Plane {
	rng := detutil.NewSource(cfg.Seed)
	p := &Plane{
		cfg:     cfg,
		sampler: sampler,
		net:     net,
		sched:   sched,
		obs:     o,
		rng:     &rng,
		merger:  metrics.NewReportMerger(),
	}
	p.regions = Domains(top, cfg)
	p.regionOf = make([]int, top.N())
	for i := range p.regionOf {
		p.regionOf[i] = -1
	}
	for r, sites := range p.regions {
		for _, s := range sites {
			p.regionOf[int(s)] = r
		}
	}
	n := len(p.regions)
	p.ctrlDown = make([]bool, n)
	p.quarantined = make([]bool, n)
	p.quarantinedAt = make([]vclock.Time, n)
	p.epoch = make([]int, n)
	p.describeMetrics()
	return p
}

func (p *Plane) describeMetrics() {
	if p.obs == nil {
		return
	}
	r := p.obs.Registry()
	r.Describe("wasp_ctrl_reports_total", "Site telemetry reports delivered to the controller.")
	r.Describe("wasp_ctrl_report_drops_total", "Site telemetry reports lost in the control plane, by reason.")
	r.Describe("wasp_ctrl_commands_total", "Controller commands issued over the control plane.")
	r.Describe("wasp_ctrl_command_retries_total", "Command re-sends after ack timeout.")
	r.Describe("wasp_ctrl_quarantines_total", "Region quarantine entries.")
}

// Start arms the report ticker. Reports begin at now+reportEvery.
func (p *Plane) Start() {
	if p.ticker != nil {
		return
	}
	p.ticker = p.sched.Every(reportEvery, p.reportRound)
}

// Stop cancels the report ticker.
func (p *Plane) Stop() {
	if p.ticker != nil {
		p.ticker.Cancel()
		p.ticker = nil
	}
}

// NumRegions returns the number of quarantine domains.
func (p *Plane) NumRegions() int { return len(p.regions) }

// RegionOfSite returns the quarantine domain of a site (-1 if none).
func (p *Plane) RegionOfSite(s topology.SiteID) int {
	if int(s) < 0 || int(s) >= len(p.regionOf) {
		return -1
	}
	return p.regionOf[int(s)]
}

// SetRegionPartition injects or heals a ctrldown fault: while down, the
// region's telemetry cannot reach the controller and the controller's
// commands cannot reach the region.
func (p *Plane) SetRegionPartition(region int, down bool) {
	if region < 0 || region >= len(p.ctrlDown) {
		return
	}
	p.ctrlDown[region] = down
}

// SetLossRate injects or heals a telemloss fault: each report flips an
// independent deterministic coin and is lost with probability rate.
func (p *Plane) SetLossRate(rate float64) { p.lossRate = rate }

// SetExtraDelay injects or heals a ctrldelay fault: added to every
// control-plane message in both directions.
func (p *Plane) SetExtraDelay(d time.Duration) { p.extraDelay = d }

// reportRound takes one report per site and launches each across the WAN.
// Sites are visited in ascending order, so the loss RNG consumes a
// deterministic draw sequence. Every site reports, not just the ones
// hosting tasks: an idle site that never reported would look permanently
// silent — its region would be quarantined at the first threshold
// crossing and never re-admitted (and masked out of placement forever).
// A report that survives the drop checks is copied into an in-flight slot,
// since the sampler reuses its reports at the next round.
func (p *Plane) reportRound(now vclock.Time) {
	ctrl := p.cfg.ControllerSite
	for _, rep := range p.sampler.SampleSites() {
		site := rep.Site
		if site != ctrl {
			if r := p.regionOf[int(site)]; r >= 0 && p.ctrlDown[r] {
				p.dropReport("partition")
				continue
			}
			if !p.net.Reachable(site, ctrl, now) {
				p.dropReport("blackout")
				continue
			}
			if p.lossRate > 0 && p.rng.Float64() < p.lossRate {
				p.dropReport("loss")
				continue
			}
		}
		delay := p.net.Latency(site, ctrl)
		if site != ctrl {
			delay += p.extraDelay
		}
		f := p.slot()
		f.rep.Site, f.rep.At = rep.Site, rep.At
		f.rep.Ops = append(f.rep.Ops[:0], rep.Ops...)
		p.sched.Schedule(&f.ev, now+delay, f.deliver)
	}
}

// slot takes a free in-flight slot, making one when none is free.
func (p *Plane) slot() *inflight {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f
	}
	f := &inflight{}
	f.deliver = func(vclock.Time) {
		p.deliverReport(f.rep)
		p.free = append(p.free, f)
	}
	return f
}

func (p *Plane) dropReport(reason string) {
	if p.obs == nil {
		return
	}
	p.obs.Registry().Counter("wasp_ctrl_report_drops_total", "reason", reason).Add(1)
}

// deliverReport absorbs one report controller-side. The first report out
// of a quarantined region re-admits the whole region.
func (p *Plane) deliverReport(rep metrics.SiteReport) {
	p.merger.Absorb(rep)
	if p.obs != nil {
		p.obs.Registry().Counter("wasp_ctrl_reports_total").Add(1)
	}
	if r := p.regionOf[int(rep.Site)]; r >= 0 && p.quarantined[r] {
		p.readmit(r, rep.Site)
	}
}

func (p *Plane) readmit(r int, site topology.SiteID) {
	now := p.sched.Now()
	p.quarantined[r] = false
	p.epoch[r]++
	if p.obs != nil {
		p.obs.Emit("ctrl.readmit",
			obs.Int("region", r),
			obs.Int("site", int(site)),
			obs.Int("epoch", p.epoch[r]),
			obs.Dur("quarantined_for", time.Duration(now-p.quarantinedAt[r])))
	}
}

// UpdateQuarantine re-evaluates every region's silence at the start of a
// monitoring round: a region whose sites have ALL been quiet longer than
// partitionAfter enters quarantine. Re-admission happens on report
// arrival (deliverReport), not here.
func (p *Plane) UpdateQuarantine(now vclock.Time) {
	if now <= vclock.Time(partitionAfter) {
		return // nobody has had time to report yet
	}
	for r, sites := range p.regions {
		if p.quarantined[r] {
			continue
		}
		allStale := len(sites) > 0
		for _, s := range sites {
			if p.ageOf(s, now) <= partitionAfter {
				allStale = false
				break
			}
		}
		if !allStale {
			continue
		}
		p.quarantined[r] = true
		p.quarantinedAt[r] = now
		if p.obs != nil {
			p.obs.Registry().Counter("wasp_ctrl_quarantines_total").Add(1)
			p.obs.Emit("ctrl.quarantine",
				obs.Int("region", r),
				obs.Int("sites", len(sites)),
				obs.Int("epoch", p.epoch[r]))
		}
	}
}

// ageOf is the site's evidence age; a site that never reported is as old
// as the run itself. A local plane can pull a fresh report at any moment,
// so its evidence has no age.
func (p *Plane) ageOf(s topology.SiteID, now vclock.Time) time.Duration {
	if p.local {
		return 0
	}
	age, ok := p.merger.Age(s, now)
	if !ok {
		return time.Duration(now)
	}
	return age
}

// StalestOf returns the worst evidence age across a set of sites.
func (p *Plane) StalestOf(sites []topology.SiteID, now vclock.Time) time.Duration {
	var worst time.Duration
	for _, s := range sites {
		if a := p.ageOf(s, now); a > worst {
			worst = a
		}
	}
	return worst
}

// Snapshot merges the freshest reports per site into the controller's
// view of the job: a local plane first pulls a report from every site (so
// its rates run from the previous Snapshot), a WAN plane merges whatever
// its ticker delivered. The snapshot is the plane's own, refilled by each
// call: it is valid until the next Snapshot.
func (p *Plane) Snapshot(now vclock.Time) *metrics.Snapshot {
	if p.local {
		for _, rep := range p.sampler.SampleSites() {
			p.merger.Absorb(rep)
		}
	}
	p.merger.SnapshotInto(&p.snap, now)
	return &p.snap
}

// QuarantinedRegionOf returns the first quarantined region among the
// given sites (ok=false when none is quarantined).
func (p *Plane) QuarantinedRegionOf(sites []topology.SiteID) (int, bool) {
	for _, s := range sites {
		if r := p.RegionOfSite(s); r >= 0 && p.quarantined[r] {
			return r, true
		}
	}
	return 0, false
}

// QuarantinedRegions lists currently quarantined regions, ascending.
func (p *Plane) QuarantinedRegions() []int {
	var out []int
	for r, q := range p.quarantined {
		if q {
			out = append(out, r)
		}
	}
	return out
}

// MaskUnreachable zeroes the free-slot count of every site the controller
// must not place work on: sites in quarantined regions, and sites whose
// evidence is older than MaxStaleness (a site you have not heard from is
// not a migration target). The controller's own site is exempt.
func (p *Plane) MaskUnreachable(free []int, now vclock.Time) {
	for i := range free {
		s := topology.SiteID(i)
		if s == p.cfg.ControllerSite {
			continue
		}
		if r := p.RegionOfSite(s); (r >= 0 && p.quarantined[r]) || p.ageOf(s, now) > MaxStaleness {
			free[i] = 0
		}
	}
}

// WrongActions counts commands issued while their target region had an
// active control partition — the "controller acted on a region it could
// not actually see" metric the ctrlchaos sweep reports.
func (p *Plane) WrongActions() int { return p.wrongActions }
