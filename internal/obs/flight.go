package obs

import (
	"io"
	"strconv"

	"github.com/wasp-stream/wasp/internal/vclock"
)

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
// When the buffer wraps, the oldest rows are overwritten: a dump always
// holds the last Len() ticks before the dump — exactly what a post-mortem
// of a failed run needs. All methods are nil-safe, mirroring the rest of
// the obs package: a nil *FlightRecorder (recording disabled) turns every
// call into a no-op.
type FlightRecorder struct {
	capacity int
	rows     int // rows recorded since creation (monotone)
	pos      int // ring slot of the current row
	t        []vclock.Time

	cols   []*FlightColumn // creation order == dump column order
	byName map[string]*FlightColumn
}

// FlightColumn is one named series of the flight recorder. The zero slot
// of every row is 0; Set overwrites and Add accumulates within the
// current row.
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

// FlightSchema identifies the dump format in its header line.
const FlightSchema = "wasp-flight/v1"

// Dump writes the retained rows, oldest first, as JSON lines: a header
//
//	{"flight":"wasp-flight/v1","capacity":4096,"rows":900,"columns":[...]}
//
// followed by one row per retained tick:
//
//	{"t":12.5,"v":[...]}
//
// where v holds the column values in header order. Floats use the same
// shortest round-trip encoding as the JSONL timeline, so same-seed dumps
// are byte-identical.
func (f *FlightRecorder) Dump(w io.Writer) error {
	if f == nil {
		return nil
	}
	buf := make([]byte, 0, 512)
	buf = append(buf, `{"flight":`...)
	buf = appendJSONString(buf, FlightSchema)
	buf = append(buf, `,"capacity":`...)
	buf = strconv.AppendInt(buf, int64(f.capacity), 10)
	buf = append(buf, `,"rows":`...)
	buf = strconv.AppendInt(buf, int64(f.rows), 10)
	buf = append(buf, `,"columns":[`...)
	for i, c := range f.cols {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, c.name)
	}
	buf = append(buf, ']', '}', '\n')
	if _, err := w.Write(buf); err != nil {
		return err
	}

	n := f.Len()
	start := 0
	if f.rows > f.capacity {
		start = f.pos + 1 // oldest retained row
	}
	for i := 0; i < n; i++ {
		slot := start + i
		if slot >= f.capacity {
			slot -= f.capacity
		}
		buf = buf[:0]
		buf = append(buf, `{"t":`...)
		buf = appendTime(buf, f.t[slot])
		buf = append(buf, `,"v":[`...)
		for j, c := range f.cols {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONFloat(buf, c.buf[slot])
		}
		buf = append(buf, ']', '}', '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
