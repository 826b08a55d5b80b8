package obs

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
)

// runSchema names the run-artifact format on its header line.
const runSchema = "wasp-run/v1"

// WriteRun writes one run's artifact: everything the observer and the
// flight recorder (nil when the run recorded none) hold, one JSON object
// per line. The header comes first; its durs name, per event or span
// name, the attributes that are durations, which JSON carries as float
// seconds and ReadRun types back, so the audit still prints 3m0s:
//
//	{"run":"wasp-run/v1","durs":{"adapt.latency":["dur"]}}
//
// Then the timeline, byte for byte as WriteJSONL writes it; then the
// registry's HELP texts and series in name order; last the flight ring's
// header and its retained rows, oldest first:
//
//	{"type":"help","name":"wasp_migration_seconds","text":"..."}
//	{"type":"counter","series":"wasp_events_processed_total{op=\"1\"}","value":6}
//	{"type":"gauge","series":"wasp_operator_tasks{op=\"1\"}","value":3}
//	{"type":"histogram","series":"wasp_migration_seconds","bounds":[1,30],"counts":[0,1,0],"sum":12}
//	{"type":"flight","capacity":4096,"rows":2880,"columns":["stage0.backlog",...]}
//	{"type":"tick","t":0.25,"v":[0,...]}
//
// Same-seed runs write byte-identical artifacts, and what ReadRun reads
// back writes the same bytes again.
func WriteRun(w io.Writer, o *Observer, f *FlightRecorder) error {
	// A write error sticks in bw and surfaces at Flush.
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	enc.Encode(runLine{Run: runSchema, Durs: o.durKeys()})
	if err := o.WriteJSONL(bw); err != nil {
		return err
	}
	if r := o.Registry(); r != nil {
		for _, name := range detutil.SortedKeys(r.help) {
			enc.Encode(runLine{Type: "help", Name: name, Text: r.help[name]})
		}
		for _, key := range detutil.SortedKeys(r.counters) {
			enc.Encode(runLine{Type: "counter", Series: key, Value: ref(jsonFloat(r.counters[key].v))})
		}
		for _, key := range detutil.SortedKeys(r.gauges) {
			enc.Encode(runLine{Type: "gauge", Series: key, Value: ref(jsonFloat(r.gauges[key].v))})
		}
		for _, key := range detutil.SortedKeys(r.hists) {
			h := r.hists[key]
			enc.Encode(runLine{Type: "histogram", Series: key, Bounds: floats[jsonFloat](h.bounds), Counts: h.counts, Sum: ref(jsonFloat(h.sum))})
		}
	}
	if f != nil {
		t, names, vals := f.Window()
		enc.Encode(runLine{Type: "flight", Capacity: f.capacity, Rows: f.rows, Columns: names})
		for i := range t {
			row := make([]jsonFloat, len(vals))
			for c := range vals {
				row[c] = jsonFloat(vals[c][i])
			}
			enc.Encode(runLine{Type: "tick", T: jsonFloat(t[i].Seconds()), V: row})
		}
	}
	return bw.Flush()
}

// durKeys maps every event and span name to its duration attributes.
func (o *Observer) durKeys() map[string][]string {
	out := map[string][]string{}
	note := func(name string, attrs []KV) {
		for _, kv := range attrs {
			if kv.Val.kind == kindDur && !slices.Contains(out[name], kv.Key) {
				out[name] = append(out[name], kv.Key)
			}
		}
	}
	o.Walk(func(ev *Event, sp *Span) {
		if ev != nil {
			note(ev.Name, ev.Attrs)
			return
		}
		note(sp.Name, sp.Attrs)
		for _, e := range sp.Events {
			note(e.Name, e.Attrs)
		}
	})
	for _, keys := range out {
		slices.Sort(keys)
	}
	return out
}

// runLine is every artifact line's fields: WriteRun encodes the lines
// other than the timeline's from it, and ReadRun decodes every line into
// it. Value and Sum are pointers because omitempty drops a float -0 too,
// which would read back as 0.
type runLine struct {
	Run      string              `json:"run,omitempty"`
	Durs     map[string][]string `json:"durs,omitempty"`
	Type     string              `json:"type,omitempty"`
	T        jsonFloat           `json:"t,omitempty"`
	ID       uint64              `json:"id,omitempty"`
	Parent   uint64              `json:"parent,omitempty"`
	Name     string              `json:"name,omitempty"`
	End      *jsonFloat          `json:"end,omitempty"`
	Attrs    json.RawMessage     `json:"attrs,omitempty"`
	Events   []runLine           `json:"events,omitempty"`
	Text     string              `json:"text,omitempty"`
	Series   string              `json:"series,omitempty"`
	Value    *jsonFloat          `json:"value,omitempty"`
	Bounds   []jsonFloat         `json:"bounds,omitempty"`
	Counts   []uint64            `json:"counts,omitempty"`
	Sum      *jsonFloat          `json:"sum,omitempty"`
	Capacity int                 `json:"capacity,omitempty"`
	Rows     int                 `json:"rows,omitempty"`
	Columns  []string            `json:"columns,omitempty"`
	V        []jsonFloat         `json:"v,omitempty"`
}

// jsonFloat is a float as the timeline writes one: a number, or a string
// such as "NaN" or "+Inf" that JSON has no number for.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) { return appendJSONFloat(nil, float64(f)), nil }

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	v, err := strconv.ParseFloat(strings.Trim(string(b), `"`), 64)
	*f = jsonFloat(v)
	return err
}

func (f *jsonFloat) get() float64 {
	if f == nil {
		return 0
	}
	return float64(*f)
}

func ref[T any](v T) *T { return &v }

func floats[T, F ~float64](in []F) []T {
	out := make([]T, len(in))
	for i, v := range in {
		out[i] = T(v)
	}
	return out
}

// ReadRun reads an artifact WriteRun wrote back into an observer and, when
// the run recorded one, a flight recorder (nil otherwise). The observer
// has no clock, and the recorder holds only the retained rows: both are
// for reading and exporting. Input that is not such an artifact is an
// error naming its line: a missing header, a malformed line, a span whose
// id does not increase or whose parent is not an earlier span, a time the
// virtual clock cannot hold exactly, or a flight ring whose rows do not
// match its header.
func ReadRun(r io.Reader) (*Observer, *FlightRecorder, error) {
	rd := runReader{o: New(nil)}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 64<<20)
	for n := 1; sc.Scan(); n++ {
		if err := rd.line(sc.Bytes()); err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", n, err)
		}
	}
	switch f := rd.f; {
	case sc.Err() != nil:
		return nil, nil, sc.Err()
	case rd.spans == nil:
		return nil, nil, fmt.Errorf("no %s header", runSchema)
	case f != nil && len(f.t) != f.Len():
		return nil, nil, fmt.Errorf("flight ring holds %d of its %d retained rows", len(f.t), f.Len())
	}
	return rd.o, rd.f, nil
}

// runReader rebuilds one artifact line by line.
type runReader struct {
	o     *Observer
	f     *FlightRecorder
	durs  map[string][]string // the header's
	spans map[uint64]bool     // ids of the spans read so far; nil until the header is read
}

func (rd *runReader) line(b []byte) error {
	var l runLine
	if err := json.Unmarshal(b, &l); err != nil {
		return err
	}
	if rd.spans == nil {
		if l.Run != runSchema {
			return fmt.Errorf("not a %s artifact", runSchema)
		}
		rd.durs, rd.spans = l.Durs, map[uint64]bool{}
		return nil
	}
	o, r, f := rd.o, rd.o.reg, rd.f
	name, _ := splitSeries(l.Series)
	switch l.Type {
	case "event":
		ev, err := rd.event(l)
		o.timeline = append(o.timeline, entry{ev: &ev})
		return err
	case "span":
		ev, err := rd.event(l)
		sp := &Span{o: o, ID: l.ID, Parent: l.Parent, Name: l.Name, Start: ev.At, Attrs: ev.Attrs}
		if l.ID <= o.nextID || (l.Parent != 0 && !rd.spans[l.Parent]) {
			err = fmt.Errorf("span %d: ids must increase, and a parent must be an earlier span", l.ID)
		}
		if l.End != nil {
			if sp.End, sp.Ended = seconds(float64(*l.End)); !sp.Ended {
				err = fmt.Errorf("span %d: end %v is not a virtual time", l.ID, *l.End)
			}
		}
		for _, e := range l.Events {
			ev, evErr := rd.event(e)
			sp.Events, err = append(sp.Events, ev), cmp.Or(err, evErr)
		}
		o.nextID, rd.spans[l.ID] = l.ID, true
		o.timeline = append(o.timeline, entry{span: sp})
		return err
	case "help":
		r.Describe(l.Name, l.Text)
	case "counter":
		r.counters[l.Series] = &Counter{name: name, v: l.Value.get()}
	case "gauge":
		r.gauges[l.Series] = &Gauge{name: name, v: l.Value.get()}
	case "histogram":
		if len(l.Counts) != len(l.Bounds)+1 {
			return fmt.Errorf("histogram %s: %d counts for %d bounds", l.Series, len(l.Counts), len(l.Bounds))
		}
		h := &Histogram{name: name, series: l.Series, bounds: floats[float64](l.Bounds), counts: l.Counts, sum: l.Sum.get()}
		for _, c := range l.Counts {
			h.count += c
		}
		r.hists[l.Series] = h
	case "flight":
		if f != nil || l.Capacity <= 0 || l.Rows < 0 {
			return fmt.Errorf("flight header: capacity %d, rows %d (a second header, or not a ring)", l.Capacity, l.Rows)
		}
		f = &FlightRecorder{capacity: l.Capacity, rows: l.Rows, pos: -1, byName: map[string]*FlightColumn{}}
		for _, name := range l.Columns {
			c := &FlightColumn{name: name, fr: f}
			f.cols, f.byName[name] = append(f.cols, c), c
		}
		rd.f = f
	case "tick":
		at, ok := seconds(float64(l.T))
		if f == nil || len(f.t) == f.Len() || len(l.V) != len(f.cols) || !ok {
			return errors.New("tick: not one of the flight ring's retained rows")
		}
		f.t, f.pos = append(f.t, at), f.pos+1
		for i, c := range f.cols {
			c.buf = append(c.buf, float64(l.V[i]))
		}
	default:
		return fmt.Errorf("unknown line type %q", l.Type)
	}
	return nil
}

// event reads one event, or a span's start, name and attributes.
func (rd *runReader) event(l runLine) (Event, error) {
	at, ok := seconds(float64(l.T))
	if !ok {
		return Event{}, fmt.Errorf("%s: %v is not a virtual time", l.Name, l.T)
	}
	attrs, err := readAttrs(l.Attrs, rd.durs[l.Name])
	return Event{At: at, Name: l.Name, Attrs: attrs}, err
}

// readAttrs decodes an attrs object in its key order. A number reads as a
// duration under a key durs names, when one writes exactly those seconds;
// else as an integer, when it is one in canonical form; else as a float
// (beyond float range, ±Inf). Each writes back the same JSON and text.
func readAttrs(raw json.RawMessage, durs []string) ([]KV, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	// The line parsed, so the tokens are well-formed.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if tok, _ := dec.Token(); tok != json.Delim('{') {
		return nil, errors.New("attrs is not an object")
	}
	var out []KV
	for dec.More() {
		k, _ := dec.Token()
		tok, _ := dec.Token()
		key, _ := k.(string)
		kv := KV{Key: key}
		switch v := tok.(type) {
		case json.Number:
			f, _ := strconv.ParseFloat(string(v), 64)
			i, err := strconv.ParseInt(string(v), 10, 64)
			if d, ok := seconds(f); ok && slices.Contains(durs, key) {
				kv = Dur(key, d)
			} else if err == nil && strconv.FormatInt(i, 10) == string(v) {
				kv = I64(key, i)
			} else {
				kv = F64(key, f)
			}
		case string:
			kv = String(key, v)
		case bool:
			kv = Bool(key, v)
		case json.Delim:
			return nil, fmt.Errorf("attr %s is not a scalar", key)
		}
		out = append(out, kv)
	}
	return out, nil
}

// seconds converts JSON seconds back to a duration, reporting false when
// no duration writes exactly those seconds.
func seconds(f float64) (time.Duration, bool) {
	if !(math.Abs(f) < 9e9) {
		return 0, false
	}
	d := time.Duration(math.Round(f * 1e9))
	return d, time.Duration(math.Round(d.Seconds()*1e9)) == d
}
