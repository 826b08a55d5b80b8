package obs

import "github.com/wasp-stream/wasp/internal/vclock"

// FlightRecorder is the run's black box: a fixed-capacity, struct-of-arrays
// ring buffer of per-tick samples. The engine begins one row per simulation
// tick and writes named columns (per-stage backlog and processing rate,
// per-link utilization, suspended-operator count, in-flight transfers)
// into the current row. Every buffer is preallocated at creation, so the
// warm tick path — BeginTick plus any number of Column Set/Add calls —
// performs zero allocations; column creation is the only allocating
// operation and happens off the tick path (at attach time and after
// structural plan changes).
//
// When the buffer wraps, the oldest rows are overwritten: the run artifact
// (WriteRun) always holds the last Len() ticks of the run — exactly what
// a post-mortem of a failed run needs. All methods are nil-safe, mirroring
// the rest of the obs package: a nil *FlightRecorder (recording disabled)
// turns every call into a no-op.
type FlightRecorder struct {
	capacity int
	rows     int // rows recorded since creation (monotone)
	pos      int // ring slot of the current row
	t        []vclock.Time

	cols   []*FlightColumn // creation order == artifact column order
	byName map[string]*FlightColumn
}

// FlightColumn is one named series of the flight recorder. Every row
// starts at 0; Set overwrites the current row's value.
type FlightColumn struct {
	name string
	buf  []float64
	fr   *FlightRecorder
}

// DefaultFlightCapacity is the ring size used when NewFlightRecorder is
// given a non-positive capacity: at the engine's 250 ms tick it retains
// the last ~17 virtual minutes of a run.
const DefaultFlightCapacity = 4096

// NewFlightRecorder creates a recorder retaining the last `capacity`
// ticks (DefaultFlightCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{
		capacity: capacity,
		pos:      -1,
		t:        make([]vclock.Time, capacity),
		byName:   make(map[string]*FlightColumn),
	}
}

// Column returns (creating if needed) the named column. Creation
// allocates the column's full ring buffer up front — call it when the
// recorder is attached or after a structural change, never per tick.
func (f *FlightRecorder) Column(name string) *FlightColumn {
	if f == nil {
		return nil
	}
	if c, ok := f.byName[name]; ok {
		return c
	}
	c := &FlightColumn{name: name, buf: make([]float64, f.capacity), fr: f}
	f.byName[name] = c
	f.cols = append(f.cols, c)
	return c
}

// BeginTick starts the row for one simulation tick at virtual time t,
// zero-filling every column's slot. Allocation-free.
func (f *FlightRecorder) BeginTick(t vclock.Time) {
	if f == nil {
		return
	}
	f.pos++
	if f.pos == f.capacity {
		f.pos = 0
	}
	f.rows++
	f.t[f.pos] = t
	for _, c := range f.cols {
		c.buf[f.pos] = 0
	}
}

// Set writes the column's value for the current row. Allocation-free.
func (c *FlightColumn) Set(v float64) {
	if c == nil || c.fr.pos < 0 {
		return
	}
	c.buf[c.fr.pos] = v
}

// Len returns the number of retained rows (at most the capacity).
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	if f.rows < f.capacity {
		return f.rows
	}
	return f.capacity
}

// Capacity returns the ring size: how many of the newest rows it retains.
func (f *FlightRecorder) Capacity() int {
	if f == nil {
		return 0
	}
	return f.capacity
}

// Recorded returns the number of rows recorded since creation, retained
// or not.
func (f *FlightRecorder) Recorded() int {
	if f == nil {
		return 0
	}
	return f.rows
}

// Window returns the retained rows oldest first: their tick times and, per
// column in creation order, its name and its values.
func (f *FlightRecorder) Window() (t []vclock.Time, names []string, vals [][]float64) {
	if f == nil {
		return nil, nil, nil
	}
	n, start := f.Len(), 0
	if f.rows > f.capacity {
		start = f.pos + 1 // oldest retained row
	}
	slot := func(i int) int { return (start + i) % f.capacity }
	t = make([]vclock.Time, n)
	for i := range t {
		t[i] = f.t[slot(i)]
	}
	for _, c := range f.cols {
		v := make([]float64, n)
		for i := range v {
			v[i] = c.buf[slot(i)]
		}
		names, vals = append(names, c.name), append(vals, v)
	}
	return t, names, vals
}
