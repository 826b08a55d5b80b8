package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// flightLines writes f as a run artifact's flight section and returns its
// lines: the flight header, then one line per retained row.
func flightLines(t *testing.T, f *FlightRecorder) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRun(&buf, nil, f); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	return lines[1:] // past the run header
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.BeginTick(0)
	f.Column("x").Set(1)
	if f.Len() != 0 || f.Capacity() != 0 || f.Recorded() != 0 {
		t.Fatal("nil recorder must report zero rows")
	}
	if ts, names, vals := f.Window(); ts != nil || names != nil || vals != nil {
		t.Fatal("nil recorder has a window")
	}
}

func TestFlightRecorderRecordsAndDumps(t *testing.T) {
	f := NewFlightRecorder(8)
	a := f.Column("a")
	b := f.Column("b")
	for i := 0; i < 3; i++ {
		f.BeginTick(vclock.Time(i) * vclock.Time(time.Second))
		a.Set(float64(i))
		b.Set(1.5)
	}
	if f.Len() != 3 || f.rows != 3 {
		t.Fatalf("Len=%d rows=%d, want 3/3", f.Len(), f.rows)
	}
	lines := flightLines(t, f)
	if len(lines) != 4 {
		t.Fatalf("flight section has %d lines, want header + 3 rows:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	wantHeader := `{"type":"flight","capacity":8,"rows":3,"columns":["a","b"]}`
	if lines[0] != wantHeader {
		t.Fatalf("header = %s\nwant     %s", lines[0], wantHeader)
	}
	if lines[2] != `{"type":"tick","t":1,"v":[1,1.5]}` {
		t.Fatalf("row 1 = %s", lines[2])
	}
}

func TestFlightRecorderWrapKeepsNewestRows(t *testing.T) {
	f := NewFlightRecorder(4)
	c := f.Column("v")
	for i := 0; i < 10; i++ {
		f.BeginTick(vclock.Time(i) * vclock.Time(time.Second))
		c.Set(float64(i))
	}
	if f.Len() != 4 || f.rows != 10 {
		t.Fatalf("Len=%d rows=%d, want 4/10", f.Len(), f.rows)
	}
	lines := flightLines(t, f)
	// Oldest retained row first: ticks 6, 7, 8, 9.
	want := []string{
		`{"type":"tick","t":6,"v":[6]}`,
		`{"type":"tick","t":7,"v":[7]}`,
		`{"type":"tick","t":8,"v":[8]}`,
		`{"type":"tick","t":9,"v":[9]}`,
	}
	for i, w := range want {
		if lines[i+1] != w {
			t.Fatalf("row %d = %s, want %s", i, lines[i+1], w)
		}
	}
}

// TestFlightRecorderZeroFillsNewRow: every BeginTick starts all columns
// at zero, even after a wrap over old values, so a column nothing sets in a
// tick reads 0.
func TestFlightRecorderZeroFillsNewRow(t *testing.T) {
	f := NewFlightRecorder(2)
	c := f.Column("v")
	f.BeginTick(0)
	c.Set(7)
	f.BeginTick(1)
	c.Set(8)
	f.BeginTick(2) // wraps onto the slot holding 7; must read 0 if unset
	if lines := flightLines(t, f); lines[2] != `{"type":"tick","t":2e-09,"v":[0]}` {
		t.Fatalf("wrapped row not zero-filled:\n%s", strings.Join(lines, "\n"))
	}
}

// TestFlightRecorderTickAllocs locks in the 0 allocs/tick contract of the
// warm path: BeginTick plus column writes must never allocate once the
// columns exist.
func TestFlightRecorderTickAllocs(t *testing.T) {
	f := NewFlightRecorder(64)
	cols := make([]*FlightColumn, 16)
	for i := range cols {
		cols[i] = f.Column(strings.Repeat("c", i+1))
	}
	now := vclock.Time(0)
	avg := testing.AllocsPerRun(500, func() {
		now += vclock.Time(250 * time.Millisecond)
		f.BeginTick(now)
		for _, c := range cols {
			c.Set(1.5)
		}
	})
	if avg != 0 {
		t.Errorf("flight warm path allocates %.2f objects/tick, want 0", avg)
	}
}

func TestFlightRecorderLateColumnReadsZeroForOldRows(t *testing.T) {
	f := NewFlightRecorder(8)
	a := f.Column("a")
	f.BeginTick(0)
	a.Set(1)
	late := f.Column("late") // created after a row was recorded
	f.BeginTick(1)
	late.Set(2)
	if lines := flightLines(t, f); lines[1] != `{"type":"tick","v":[1,0]}` {
		t.Fatalf("pre-creation row = %s, want late column zero", lines[1])
	}
}
