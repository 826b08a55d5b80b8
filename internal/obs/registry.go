package obs

import (
	"sort"
	"strings"
)

// Registry holds a run's telemetry instruments, keyed by metric name plus
// label set. Instruments are created on first use and survive for the
// run; export order is deterministic (sorted by name, then labels).
//
// All methods are nil-safe: a nil *Registry returns nil instruments, and
// nil instruments' Add/Set/Observe are no-ops, so call sites need no
// guards when observability is disabled.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
}

// Describe attaches a HELP string to a metric name for the Prometheus
// export. Later descriptions of the same name win.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.help[name] = help
}

// seriesKey builds the identity of one series: name plus label pairs in
// the given (caller-stable) order.
func seriesKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(labels[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotone accumulator. The zero value of the pointer (nil)
// is a valid no-op instrument.
type Counter struct {
	name string
	v    float64
}

// Counter returns (creating if needed) the counter for name with the
// given label key/value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{name: name}
		r.counters[key] = c
	}
	return c
}

// Add increases the counter. Negative deltas are ignored (counters are
// monotone).
//
//waspvet:hotpath
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	c.v += v
}

// Inc adds 1.
//
//waspvet:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Value returns the accumulated total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a set-to-current-value instrument.
type Gauge struct {
	name string
	v    float64
}

// Gauge returns (creating if needed) the gauge for name with the given
// label key/value pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[key] = g
	}
	return g
}

// Set records the current value.
//
//waspvet:hotpath
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Histogram is a fixed-bucket cumulative histogram: bounds are the
// inclusive upper edges, ascending; observations above the last bound
// land in the implicit +Inf bucket.
type Histogram struct {
	name   string
	series string
	bounds []float64
	counts []uint64 // len(bounds)+1, last = +Inf bucket
	sum    float64
	count  uint64
}

// Histogram returns (creating if needed) the histogram for name with the
// given bucket bounds and label key/value pairs. The bounds of the first
// creation win; later calls may pass nil.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	h, ok := r.hists[key]
	if !ok {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{name: name, series: key, bounds: bs, counts: make([]uint64, len(bs)+1)}
		r.hists[key] = h
	}
	return h
}

// Observe records one sample.
//
//waspvet:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose (inclusive) upper bound covers the sample; the
	// +Inf bucket is counts[len(bounds)].
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
}
