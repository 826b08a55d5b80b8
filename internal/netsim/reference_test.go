package netsim

// FuzzStepMatchesReference holds the incremental Network to a from-scratch
// reference: refNet keeps every capacity input in maps keyed by site pair,
// recomputes each capacity (base × global × per-link trace × fault) when
// asked, and runs a full max-min solve on every loaded link on every Step.
// The two are driven in lockstep by fuzz-decoded flow, demand, transfer,
// fault and trace operations (nil traces included, trace pieces shorter and
// longer than a step), and must agree exactly after every Step: skipping a
// link whose inputs did not change is only correct if it reproduces the
// stored allocation bit for bit. Capacity probes at earlier and later
// times between Steps move the trace cursors as cold callers do.

import (
	"math"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// refNet is the map-based reference network.
type refNet struct {
	top       *topology.Topology
	global    *trace.Trace
	factors   map[linkKey]*trace.Trace
	faults    map[linkKey]float64
	flows     []*refFlow     // registration order
	transfers []*refTransfer // registration order
}

type refFlow struct {
	key       linkKey
	demand    float64
	allocated float64
	removed   bool
}

type refTransfer struct {
	key              linkKey
	total, remaining float64
	allocated        float64
	done, canceled   bool
}

func newRefNet(top *topology.Topology) *refNet {
	return &refNet{
		top:     top,
		global:  trace.Constant(1),
		factors: make(map[linkKey]*trace.Trace),
		faults:  make(map[linkKey]float64),
	}
}

func (r *refNet) setGlobalFactor(tr *trace.Trace) {
	if tr == nil {
		tr = trace.Constant(1)
	}
	r.global = tr
}

func (r *refNet) setLinkFactor(k linkKey, tr *trace.Trace) {
	if tr == nil {
		delete(r.factors, k)
		return
	}
	r.factors[k] = tr
}

func (r *refNet) setLinkFault(k linkKey, factor float64) {
	if factor >= 1 {
		delete(r.faults, k)
		return
	}
	r.faults[k] = math.Max(factor, 0)
}

func (r *refNet) capacity(k linkKey, now vclock.Time) float64 {
	base := r.top.BaseBandwidth(k.from, k.to).BytesPerSec()
	if k.from == k.to {
		return base
	}
	f := r.global.At(now)
	if tr, ok := r.factors[k]; ok {
		f *= tr.At(now)
	}
	if ff, ok := r.faults[k]; ok {
		f *= ff
	}
	return base * f
}

func (r *refNet) latency(k linkKey) time.Duration {
	base := r.top.Latency(k.from, k.to)
	if ff, ok := r.faults[k]; ok && ff > 0 {
		return time.Duration(float64(base) / ff)
	}
	return base
}

func (t *refTransfer) live() bool { return !t.done && !t.canceled }

// step solves every loaded link from scratch — claimants flows first, then
// transfers, each in registration order — and progresses transfers in
// registration order.
func (r *refNet) step(now vclock.Time, dt time.Duration) {
	start := now - vclock.Time(dt)
	dtSec := dt.Seconds()
	type claim struct {
		f *refFlow
		t *refTransfer
	}
	loaded := make(map[linkKey][]claim)
	for _, f := range r.flows {
		if !f.removed {
			loaded[f.key] = append(loaded[f.key], claim{f: f})
		}
	}
	for _, t := range r.transfers {
		if t.live() {
			loaded[t.key] = append(loaded[t.key], claim{t: t})
		}
	}
	for k, cl := range loaded {
		cs := make([]claimant, len(cl))
		for i, c := range cl {
			if c.f != nil {
				cs[i] = claimant{demand: c.f.demand}
			} else {
				cs[i] = claimant{demand: c.t.remaining / dtSec}
			}
		}
		alloc := maxMinFairShare(r.capacity(k, start), cs)
		for i, c := range cl {
			if c.f != nil {
				c.f.allocated = alloc[i]
			} else {
				c.t.allocated = alloc[i]
			}
		}
	}
	for _, t := range r.transfers {
		if !t.live() {
			continue
		}
		t.remaining -= t.allocated * dtSec
		if t.remaining <= t.total*transferEps {
			t.remaining, t.done, t.allocated = 0, true, 0
		}
	}
}

// refTopology is a 3-site mesh with distinct bandwidths and latencies per
// direction, so a claimant on the wrong link shows.
func refTopology(tb testing.TB) *topology.Topology {
	tb.Helper()
	sites := []topology.Site{
		{ID: 0, Name: "a", Kind: topology.DataCenter, Slots: 8},
		{ID: 1, Name: "b", Kind: topology.DataCenter, Slots: 8},
		{ID: 2, Name: "c", Kind: topology.Edge, Slots: 4},
	}
	lat := [][]time.Duration{
		{time.Millisecond, 50 * time.Millisecond, 80 * time.Millisecond},
		{55 * time.Millisecond, time.Millisecond, 30 * time.Millisecond},
		{90 * time.Millisecond, 35 * time.Millisecond, time.Millisecond},
	}
	bw := [][]topology.Mbps{
		{10000, 80, 24},
		{64, 10000, 40},
		{16, 48, 10000},
	}
	top, err := topology.New(sites, lat, bw)
	if err != nil {
		tb.Fatal(err)
	}
	return top
}

// opStream decodes fuzz bytes; an exhausted stream reads as zeros.
type opStream []byte

func (s *opStream) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

func (s *opStream) pick(vals []float64) float64 { return vals[int(s.next())%len(vals)] }

func (s *opStream) pickTime(vals []time.Duration) time.Duration {
	return vals[int(s.next())%len(vals)]
}

func (s *opStream) pair() linkKey {
	return linkKey{topology.SiteID(s.next() % 3), topology.SiteID(s.next() % 3)}
}

// factorTrace decodes nil (one time in four) or a step trace of one to
// four factors, zero and repeats included, whose pieces run from shorter
// than the shortest step to longer than the longest.
func (s *opStream) factorTrace() *trace.Trace {
	b := s.next()
	if b%4 == 0 {
		return nil
	}
	factors := make([]float64, 1+int(b>>2)%4)
	for i := range factors {
		factors[i] = s.pick([]float64{0, 0.1, 0.5, 1, 1.5, 2.36})
	}
	return trace.Steps(refPieces[int(b>>4)%len(refPieces)], factors...)
}

var (
	refPieces    = []time.Duration{time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond, time.Second, 1500 * time.Millisecond, time.Minute, 370 * time.Millisecond}
	refProbes    = []time.Duration{-time.Hour, -time.Minute, -750 * time.Millisecond, -1, 0, 1, 250 * time.Millisecond, time.Minute, time.Hour}
	refDemands   = []float64{-5, 0, 1, 1e3, 1e5, 1e6, 2.5e6, 5e6, 1e7, 3e7}
	refPayloads  = []float64{0, 1e-7, 1, 1e4, 1e6, 5e6, 1e8, 1e12}
	refFaultVals = []float64{-0.5, 0, 0.1, 0.25, 0.5, 0.9, 1, 2}
)

func FuzzStepMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 5, 9, 0, 9, 1})                      // one flow, stepped
	f.Add([]byte{0, 0, 1, 0, 0, 1, 2, 0, 7, 2, 1, 7, 9, 0, 9, 3})    // two flows contend
	f.Add([]byte{3, 1, 2, 4, 0, 1, 2, 0, 8, 9, 1, 9, 1, 9, 2, 4, 0}) // a transfer beside a flow
	f.Add([]byte{0, 2, 0, 2, 0, 8, 5, 2, 0, 3, 9, 0, 6, 2, 0, 9, 1}) // fault set and healed
	f.Add([]byte{0, 0, 2, 2, 0, 6, 7, 0, 2, 5, 9, 0, 7, 0, 2, 0, 9, 2})
	f.Add([]byte{0, 1, 0, 2, 0, 9, 8, 3, 2, 9, 0, 8, 0, 9, 1, 1, 0, 9, 0})
	// A traced link cleared under a saturating flow.
	f.Add([]byte{0, 0, 1, 2, 0, 9, 0, 7, 0, 1, 1, 2, 9, 0, 7, 0, 1, 0, 9, 0})
	// A traced link whose factor falls from 1 to 0 under a saturating flow.
	f.Add([]byte{0, 0, 1, 2, 0, 9, 0, 7, 0, 1, 0x25, 3, 0, 9, 0, 9, 0, 9, 1})
	// A flow added to a link already degraded, stepped, healed and stepped.
	f.Add([]byte{5, 0, 1, 3, 0, 0, 1, 2, 0, 9, 0, 9, 0, 6, 0, 1, 9, 1})
	// Capacity probes before, between and after Steps over 1 ms pieces.
	f.Add([]byte{0, 0, 1, 2, 0, 8, 0, 8, 0x0d, 2, 5, 4, 0, 7, 0, 1, 0x0d, 3, 0, 5, 1,
		10, 0, 0, 9, 1, 10, 5, 1, 0, 1, 10, 2, 0, 9, 2, 10, 7, 0, 10, 3, 1, 1, 0})
	// Step reads the traced cursors only when its start leaves the pieces
	// they last read. The seeds below hold that skip to the reference.
	// Pieces of 370 ms under 250 ms steps, beside a link with 1-minute
	// pieces, so piece ends fall between step starts.
	f.Add([]byte{0, 0, 1, 2, 0, 9, 0, 7, 1, 2, 0x65, 3, 4, 7, 0, 1, 0x7d, 3, 2, 5, 1,
		9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0})
	// A trace installed, replaced and cleared mid-piece on a loaded link,
	// while the other traced link's piece runs for a minute.
	f.Add([]byte{0, 0, 1, 2, 0, 9, 0, 7, 1, 2, 0x65, 3, 4, 9, 0,
		7, 0, 1, 0x29, 3, 2, 5, 9, 0, 9, 0,
		7, 0, 1, 0x49, 5, 1, 2, 9, 0, 9, 1, 9, 0,
		7, 0, 1, 0, 9, 0, 9, 2})
	// A traced link whose factor moves while it has no claimants, then
	// gains its first flow mid-piece.
	f.Add([]byte{7, 0, 1, 0x4d, 3, 1, 5, 2, 7, 1, 2, 0x65, 3, 4, 9, 3, 9, 3, 9, 0,
		0, 0, 1, 2, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0})
	// Capacity probes an hour back, an hour and a minute ahead and 750 ms
	// back between Steps over 370 ms pieces: each moves the cursor out of
	// the piece the skip relies on.
	f.Add([]byte{0, 0, 1, 2, 0, 9, 0, 7, 0, 1, 0x7d, 3, 2, 5, 1, 9, 0,
		10, 8, 0, 9, 0, 10, 0, 0, 9, 1, 10, 7, 1, 0, 1, 9, 0, 10, 2, 0, 9, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		top := refTopology(t)
		net, ref := New(top), newRefNet(top)
		var (
			flows     []*Flow
			transfers []*Transfer
			now       vclock.Time
		)
		s := opStream(data)
		for ops := 0; len(s) > 0 && ops < 400; ops++ {
			switch s.next() % 11 {
			case 0: // add a flow
				k := s.pair()
				flows = append(flows, net.AddFlow(k.from, k.to))
				ref.flows = append(ref.flows, &refFlow{key: k})
			case 1: // remove a flow
				if len(flows) == 0 {
					continue
				}
				i := int(s.next()) % len(flows)
				net.RemoveFlow(flows[i])
				ref.flows[i].removed, ref.flows[i].allocated = true, 0
			case 2: // set a flow's demand
				if len(flows) == 0 {
					continue
				}
				i := int(s.next()) % len(flows)
				d := s.pick(refDemands) * float64(1+s.next()%4)
				flows[i].SetDemand(d)
				ref.flows[i].demand = math.Max(d, 0)
			case 3: // start a transfer
				k := s.pair()
				bytes := s.pick(refPayloads)
				transfers = append(transfers, net.StartTransfer(k.from, k.to, bytes))
				ref.transfers = append(ref.transfers, &refTransfer{key: k, total: bytes, remaining: bytes})
			case 4: // cancel a transfer
				if len(transfers) == 0 {
					continue
				}
				i := int(s.next()) % len(transfers)
				net.CancelTransfer(transfers[i])
				if rt := ref.transfers[i]; rt.live() {
					rt.canceled, rt.allocated = true, 0
				}
			case 5: // set (or, at factor ≥ 1, clear) a link fault
				k := s.pair()
				v := s.pick(refFaultVals)
				net.SetLinkFault(k.from, k.to, v)
				ref.setLinkFault(k, v)
			case 6: // clear a link fault
				k := s.pair()
				net.ClearLinkFault(k.from, k.to)
				delete(ref.faults, k)
			case 7: // install or clear a per-link trace
				k := s.pair()
				tr := s.factorTrace()
				net.SetLinkFactor(k.from, k.to, tr)
				ref.setLinkFactor(k, tr)
			case 8: // install or clear the global trace
				tr := s.factorTrace()
				net.SetGlobalFactor(tr)
				ref.setGlobalFactor(tr)
			case 9: // step
				dt := time.Duration(1+s.next()%4) * 250 * time.Millisecond
				now += vclock.Time(dt)
				net.Step(now, dt)
				ref.step(now, dt)
				compareWithReference(t, net, ref, flows, transfers, now)
			case 10: // read a capacity at an earlier or later time, as a cold caller does
				at := now + s.pickTime(refProbes)
				if b := s.next(); b%2 == 0 && len(flows) > 0 {
					i := int(b/2) % len(flows)
					if got, want := flows[i].Capacity(at), ref.capacity(ref.flows[i].key, at); got != want {
						t.Fatalf("t=%v flow %d %v: Flow.Capacity(%v) %v, reference %v", now, i, ref.flows[i].key, at, got, want)
					}
					continue
				}
				k := s.pair()
				if got, want := net.Capacity(k.from, k.to, at), ref.capacity(k, at); got != want {
					t.Fatalf("t=%v %v: Capacity(%v) %v, reference %v", now, k, at, got, want)
				}
			}
		}
	})
}

// compareWithReference checks every flow's allocation and capacity, every
// live flow's latency, every transfer's progress, and Capacity/Latency on
// every site pair.
func compareWithReference(t *testing.T, net *Network, ref *refNet, flows []*Flow, transfers []*Transfer, now vclock.Time) {
	t.Helper()
	for i, f := range flows {
		rf := ref.flows[i]
		if got, want := f.Allocated(), rf.allocated; got != want {
			t.Fatalf("t=%v flow %d %v: Allocated %v, reference %v", now, i, rf.key, got, want)
		}
		if got, want := f.Capacity(now), ref.capacity(rf.key, now); got != want {
			t.Fatalf("t=%v flow %d %v: Flow.Capacity %v, reference %v", now, i, rf.key, got, want)
		}
		if rf.removed {
			continue
		}
		if got, want := f.Latency(), ref.latency(rf.key); got != want {
			t.Fatalf("t=%v flow %d %v: Flow.Latency %v, reference %v", now, i, rf.key, got, want)
		}
	}
	live := 0
	for i, tr := range transfers {
		rt := ref.transfers[i]
		if tr.Remaining() != rt.remaining || tr.Done() != rt.done || tr.Canceled() != rt.canceled {
			t.Fatalf("t=%v transfer %d %v: remaining %v done %v canceled %v, reference %v %v %v",
				now, i, rt.key, tr.Remaining(), tr.Done(), tr.Canceled(), rt.remaining, rt.done, rt.canceled)
		}
		if rt.live() {
			live++
		}
	}
	if got := net.ActiveTransfers(); got != live {
		t.Fatalf("t=%v: ActiveTransfers %d, reference %d", now, got, live)
	}
	for from := topology.SiteID(0); from < 3; from++ {
		for to := topology.SiteID(0); to < 3; to++ {
			k := linkKey{from, to}
			if got, want := net.Capacity(from, to, now), ref.capacity(k, now); got != want {
				t.Fatalf("t=%v %v: Capacity %v, reference %v", now, k, got, want)
			}
			if got, want := net.Latency(from, to), ref.latency(k); got != want {
				t.Fatalf("t=%v %v: Latency %v, reference %v", now, k, got, want)
			}
		}
	}
}
