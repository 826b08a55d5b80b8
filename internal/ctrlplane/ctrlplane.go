// Package ctrlplane simulates WASP's control plane as a first-class WAN
// tenant: per-site telemetry reports and controller commands travel the
// same netsim links as data flows, so they arrive late, arrive out of
// order, or never arrive at all. The controller side merges whatever
// reports made it through (keeping the last report per site with an age),
// quarantines a region once every one of its sites has gone silent past a
// partition threshold, and re-admits the region — bumping its epoch so
// zombie commands issued against the old view are fenced — when reports
// resume.
//
// With no Plane constructed (every pre-existing entry point), the
// controller keeps its ideal instantaneous-snapshot path and behavior is
// byte-identical to before this package existed.
package ctrlplane

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Sampler provides per-site telemetry reports. Implemented by
// *engine.Engine (SampleSites); a fake suffices for tests.
type Sampler interface {
	SampleSites() []metrics.SiteReport
}

// Network is the slice of netsim the control plane rides on: propagation
// delay and reachability. Implemented by *netsim.Network.
type Network interface {
	Latency(from, to topology.SiteID) time.Duration
	Reachable(from, to topology.SiteID, now vclock.Time) bool
}

// Config places the impaired control plane in a run; a Plane is only ever
// constructed when impairment is wanted (ideal mode is the absence of a
// Plane).
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

// Plane is one job's simulated control plane: a report ticker on the
// telemetry side, an epoch-fenced command channel on the actuation side,
// and the controller-visible state (merged snapshot, per-site ages,
// quarantine set) in between. All scheduling rides the virtual clock, so
// every run is deterministic per seed.
type Plane struct {
	cfg     Config
	sampler Sampler
	net     Network
	top     *topology.Topology
	sched   *vclock.Scheduler
	obs     *obs.Observer
	rng     *rand.Rand

	// Quarantine domains: topology regions when labeled, deterministic
	// latency clusters otherwise.
	regions  [][]topology.SiteID
	regionOf []int

	// Fault state (set by the injector through the ctrldown / telemloss /
	// ctrldelay kinds).
	ctrlDown   []bool
	lossRate   float64
	extraDelay time.Duration

	merger        *metrics.ReportMerger
	quarantined   []bool
	quarantinedAt []vclock.Time
	epoch         []int

	cmds        []*Command
	pendingByOp map[plan.OpID]*Command

	ticker       *vclock.Event
	wrongActions int
}

// Domains returns the quarantine domains a plane over top uses: the
// topology's labeled regions when present, ⌈√N⌉ deterministic latency
// clusters otherwise. Exported so fault schedules (the ctrlchaos sweep, a
// -fault script author) can aim a ctrldown at a specific region without
// re-deriving the clustering.
func Domains(top *topology.Topology, _ Config) [][]topology.SiteID {
	if top.NumRegions() > 0 {
		return top.RegionSites()
	}
	return topology.ClusterRegions(top, int(math.Ceil(math.Sqrt(float64(top.N())))))
}

// New builds a plane over the run's topology, network and scheduler. The
// observer may be nil (events and counters become no-ops).
func New(cfg Config, sampler Sampler, net Network, top *topology.Topology, sched *vclock.Scheduler, o *obs.Observer) *Plane {
	p := &Plane{
		cfg:         cfg,
		sampler:     sampler,
		net:         net,
		top:         top,
		sched:       sched,
		obs:         o,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		merger:      metrics.NewReportMerger(),
		pendingByOp: make(map[plan.OpID]*Command),
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

// RegionSites returns the sites of one quarantine domain.
func (p *Plane) RegionSites(r int) []topology.SiteID { return p.regions[r] }

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

// reportRound generates one report per site and launches each across the
// WAN. Sites are visited in ascending order, so the loss RNG consumes a
// deterministic draw sequence. Every site heartbeats, not just the ones
// hosting tasks: the sampler only covers sites with deployed operators,
// and an idle site that never reported would look permanently silent —
// its region would be quarantined at the first threshold crossing and
// never re-admitted (and masked out of placement forever).
func (p *Plane) reportRound(now vclock.Time) {
	ctrl := p.cfg.ControllerSite
	sampled := p.sampler.SampleSites()
	bySite := make(map[topology.SiteID]metrics.SiteReport, len(sampled))
	for _, rep := range sampled {
		bySite[rep.Site] = rep
	}
	for s := 0; s < p.top.N(); s++ {
		rep, ok := bySite[topology.SiteID(s)]
		if !ok {
			rep = metrics.SiteReport{Site: topology.SiteID(s), At: now} // idle-site heartbeat
		}
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
		p.sched.At(now+delay, func(vclock.Time) { p.deliverReport(rep) })
	}
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
// as the run itself.
func (p *Plane) ageOf(s topology.SiteID, now vclock.Time) time.Duration {
	age, ok := p.merger.Age(s, now)
	if !ok {
		return time.Duration(now)
	}
	return age
}

// Age exposes a site's evidence age (ok=false: never reported).
func (p *Plane) Age(s topology.SiteID, now vclock.Time) (time.Duration, bool) {
	return p.merger.Age(s, now)
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

// Snapshot merges the freshest report per site into one monitoring-round
// snapshot — the controller's (partial, delayed) view of the job.
func (p *Plane) Snapshot(now vclock.Time) *metrics.Snapshot {
	return p.merger.Snapshot(now)
}

// SiteQuarantined reports whether a site's region is quarantined.
func (p *Plane) SiteQuarantined(s topology.SiteID) bool {
	r := p.RegionOfSite(s)
	return r >= 0 && p.quarantined[r]
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

// Epoch returns a region's current epoch (bumped on every re-admission).
func (p *Plane) Epoch(r int) int { return p.epoch[r] }

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
		if p.SiteQuarantined(s) || p.ageOf(s, now) > MaxStaleness {
			free[i] = 0
		}
	}
}

// WrongActions counts commands issued while their target region had an
// active control partition — the "controller acted on a region it could
// not actually see" metric the ctrlchaos sweep reports.
func (p *Plane) WrongActions() int { return p.wrongActions }

// String summarizes the plane for debugging.
func (p *Plane) String() string {
	return fmt.Sprintf("ctrlplane{regions=%d report=%v stale=%v partition=%v}",
		len(p.regions), reportEvery, MaxStaleness, partitionAfter)
}
