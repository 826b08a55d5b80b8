package stream

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// NodeID identifies a node within a Pipeline.
type NodeID int

// MaxWatermark flushes every window when injected (end of stream).
const MaxWatermark = vclock.Time(math.MaxInt64)

type nodeKind int

const (
	nodeSource nodeKind = iota + 1
	nodeOperator
	nodeSink
)

// edge is one resolved output of a node: Connect stores the consumer itself,
// not its ID, so delivering a record looks nothing up.
type edge struct {
	to   *pipelineNode
	port int
}

type pipelineNode struct {
	id      NodeID
	name    string
	kind    nodeKind
	handler Handler
	edges   []edge
	// emit is this node's forward, bound once when the node is added; it is
	// the Emit every handler call of this node receives.
	emit Emit
	// collected holds sink output.
	collected []Event
}

// Pipeline is a single-process DAG of stream operators with deterministic
// execution: events are delivered depth-first in injection order and
// watermarks propagate in topological order, so runs are exactly
// repeatable. The DAG is its own dispatch table — edges hold their consumer
// node and every node one Emit bound at construction — so a record crosses
// an operator hop without a lookup or an allocation. Pipeline is not safe
// for concurrent use.
type Pipeline struct {
	nodes []*pipelineNode
	topo  []*pipelineNode // cached topological order, invalidated on mutation
	wm    vclock.Time
}

// NewPipeline returns an empty pipeline.
func NewPipeline() *Pipeline { return &Pipeline{} }

// AddSource declares an event entry point.
func (p *Pipeline) AddSource(name string) NodeID { return p.add(name, nodeSource, nil) }

// AddNode adds an operator node.
func (p *Pipeline) AddNode(name string, h Handler) NodeID {
	if h == nil {
		panic("stream: AddNode with nil handler")
	}
	return p.add(name, nodeOperator, h)
}

// AddSink adds a terminal node that collects its input events.
func (p *Pipeline) AddSink(name string) NodeID { return p.add(name, nodeSink, nil) }

func (p *Pipeline) add(name string, kind nodeKind, h Handler) NodeID {
	n := &pipelineNode{id: NodeID(len(p.nodes)), name: name, kind: kind, handler: h}
	n.emit = n.forward
	p.nodes = append(p.nodes, n)
	p.topo = nil
	return n.id
}

func (p *Pipeline) known(id NodeID) bool { return id >= 0 && int(id) < len(p.nodes) }

// Connect wires from→to delivering into the given input port of `to`
// (port 0 for single-input operators; joins use ports 0 and 1).
func (p *Pipeline) Connect(from, to NodeID, port int) error {
	if !p.known(from) || !p.known(to) {
		return fmt.Errorf("stream: connect %d->%d: unknown node", from, to)
	}
	if p.nodes[to].kind == nodeSource {
		return fmt.Errorf("stream: node %q is a source and cannot receive input", p.nodes[to].name)
	}
	if p.nodes[from].kind == nodeSink {
		return fmt.Errorf("stream: node %q is a sink and cannot produce output", p.nodes[from].name)
	}
	p.nodes[from].edges = append(p.nodes[from].edges, edge{to: p.nodes[to], port: port})
	p.topo = nil
	return nil
}

// MustConnect is Connect that panics on error.
func (p *Pipeline) MustConnect(from, to NodeID, port int) {
	if err := p.Connect(from, to, port); err != nil {
		panic(err)
	}
}

// forward hands one output of n to each consumer in connection order,
// recursing through the consumer's handler before moving to the next
// (depth-first). Run forwards each input event from its source node.
// Connect admits no edge into a source.
func (n *pipelineNode) forward(e Event) {
	for _, ed := range n.edges {
		if to := ed.to; to.kind == nodeSink {
			to.collected = append(to.collected, e)
		} else {
			to.handler.OnEvent(ed.port, e, to.emit)
		}
	}
}

// Watermark advances the event-time watermark, flushing windows. The
// watermark must not regress.
func (p *Pipeline) Watermark(wm vclock.Time) error {
	if wm < p.wm {
		return fmt.Errorf("stream: watermark regressed from %v to %v", p.wm, wm)
	}
	p.wm = wm
	order, err := p.topoOrder()
	if err != nil {
		return err
	}
	for _, n := range order {
		if n.kind == nodeOperator {
			n.handler.OnWatermark(wm, n.emit)
		}
	}
	return nil
}

func (p *Pipeline) topoOrder() ([]*pipelineNode, error) {
	if p.topo != nil {
		return p.topo, nil
	}
	indeg := make([]int, len(p.nodes))
	for _, n := range p.nodes {
		for _, e := range n.edges {
			indeg[e.to.id]++
		}
	}
	var ready []NodeID
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, NodeID(id))
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	var order []*pipelineNode
	for len(ready) > 0 {
		n := p.nodes[ready[0]]
		ready = ready[1:]
		order = append(order, n)
		var next []NodeID
		for _, e := range n.edges {
			indeg[e.to.id]--
			if indeg[e.to.id] == 0 {
				next = append(next, e.to.id)
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		ready = append(ready, next...)
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	}
	if len(order) != len(p.nodes) {
		return nil, fmt.Errorf("stream: pipeline has a cycle")
	}
	p.topo = order
	return order, nil
}

// SinkEvents returns the events collected at a sink so far.
func (p *Pipeline) SinkEvents(id NodeID) []Event {
	n := p.nodes[id]
	out := make([]Event, len(n.collected))
	copy(out, n.collected)
	return out
}

// Inputs maps source nodes to their (event-time-ordered) input streams.
type Inputs map[NodeID][]Event

// RunConfig controls Run.
type RunConfig struct {
	// WatermarkEvery injects a watermark each time event time crosses a
	// multiple of this interval. Zero disables periodic watermarks (a
	// final MaxWatermark is always injected).
	WatermarkEvery time.Duration
}

// cursor is one source's position in Run's merge: the events not yet
// delivered and the time of the first of them.
type cursor struct {
	src  *pipelineNode
	rest []Event
	head vclock.Time
}

// Run merges the input streams in event-time order (ties broken by source
// ID), flows every event through the DAG with periodic watermarks, and
// finishes with a MaxWatermark flushing all windows. Inputs are validated
// before the first event is delivered.
func (p *Pipeline) Run(inputs Inputs, cfg RunConfig) error {
	if _, err := p.topoOrder(); err != nil {
		return err
	}
	// Cursors are in source-ID order, so the first minimum wins a tie.
	cursors := make([]cursor, 0, len(inputs))
	for _, src := range detutil.SortedKeys(inputs) {
		if !p.known(src) {
			return fmt.Errorf("stream: input for %d: unknown node", src)
		}
		n, evs := p.nodes[src], inputs[src]
		if n.kind != nodeSource {
			return fmt.Errorf("stream: input for non-source node %q", n.name)
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Time < evs[i-1].Time {
				return fmt.Errorf("stream: input for %q not time-ordered at %d", n.name, i)
			}
		}
		if len(evs) > 0 {
			cursors = append(cursors, cursor{src: n, rest: evs, head: evs[0].Time})
		}
	}

	every := vclock.Time(cfg.WatermarkEvery)
	nextWM := every
	for len(cursors) > 0 {
		best := 0
		for i := 1; i < len(cursors); i++ {
			if cursors[i].head < cursors[best].head {
				best = i
			}
		}
		c := &cursors[best]
		e := c.rest[0]
		for every > 0 && e.Time >= nextWM {
			if err := p.Watermark(nextWM); err != nil {
				return err
			}
			nextWM += every
		}
		c.src.forward(e)
		if c.rest = c.rest[1:]; len(c.rest) > 0 {
			c.head = c.rest[0].Time
		} else {
			cursors = append(cursors[:best], cursors[best+1:]...)
		}
	}
	return p.Watermark(MaxWatermark)
}
