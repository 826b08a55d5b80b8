// Package belief is the belief-audit fixture: a controller that reads the
// engine and the network only in its belief builder and link method,
// actuates through an allowed engine method, calls a same-named method of
// another type, and queries the runtime directly three times.
package belief

import (
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Controller drives an engine over a network.
type Controller struct {
	eng *engine.Engine
	net *netsim.Network
}

type links struct{ net *netsim.Network }

// observe is the belief builder: its reads are not reported.
func (c *Controller) observe() int { return len(c.eng.FreeSlots()) + len(c.eng.DownSites()) }

// bandwidth is a link method: its read is not reported.
func (l links) bandwidth(from, to topology.SiteID) float64 { return l.net.Capacity(from, to, 0) }

// other has a DownSites of its own, which is not the engine's.
type other struct{}

func (other) DownSites() []topology.SiteID { return nil }

// decide queries the engine in its body and the network in a closure,
// beside a call of other's DownSites and an actuation.
func (c *Controller) decide(o other) time.Duration {
	_ = o.DownSites()
	_ = c.eng.DownSites()
	_ = c.eng.AbortReplan()
	est := func() time.Duration {
		return c.net.EstimateTransferTime(0, 1, 1, 0)
	}
	return est()
}

// bandwidthFunc hands out a method value of the network.
func (c *Controller) bandwidthFunc() func(from, to topology.SiteID, now vclock.Time) float64 {
	return c.net.Capacity
}
