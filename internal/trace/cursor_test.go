package trace

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// byteStream decodes fuzz bytes; an exhausted stream reads as zeros.
type byteStream []byte

func (s *byteStream) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

var (
	cursorValues = []float64{0, math.Copysign(0, -1), 0.51, 1, 2.36, -3, math.NaN(), math.Inf(1), math.Inf(-1)}
	// cursorStarts and cursorGaps place points anywhere on the time line;
	// a zero gap repeats the previous T.
	cursorStarts = []vclock.Time{math.MinInt64, -time.Minute, 0, time.Second}
	cursorGaps   = []vclock.Time{0, 0, 1, 2, 250 * time.Millisecond, time.Minute, time.Hour}
	// cursorMoves steps the query time forward or backward by these.
	cursorMoves = []vclock.Time{0, 1, 250 * time.Millisecond, 10 * time.Second, time.Minute, time.Hour}
)

// decodeTrace builds a trace of zero to seven points (Default-only when
// zero), duplicate T and NaN values included.
func (s *byteStream) decodeTrace() *Trace {
	b := s.next()
	tr := &Trace{Default: cursorValues[int(s.next())%len(cursorValues)]}
	t := cursorStarts[int(b>>3)%len(cursorStarts)]
	for i := 0; i < int(b%8); i++ {
		if i > 0 {
			t += cursorGaps[int(s.next())%len(cursorGaps)]
		}
		tr.points = append(tr.points, Point{T: t, V: cursorValues[int(s.next())%len(cursorValues)]})
	}
	return tr
}

// FuzzCursorMatchesAt holds Cursor.At to Trace.At bit for bit on
// fuzz-decoded traces (empty, Default-only, duplicate T, NaN values) under
// query sequences that step forward and backward, jump to the extremes of
// the time line and land on and just before the points.
func FuzzCursorMatchesAt(f *testing.F) {
	f.Add([]byte{0, 3})                                         // empty trace, Default NaN-free
	f.Add([]byte{0, 6, 0, 1, 2, 3})                             // Default NaN
	f.Add([]byte{3, 3, 4, 0, 0, 1, 2, 3, 1, 1, 2, 1, 3, 2, 4})  // duplicate T at the start
	f.Add([]byte{21, 1, 6, 5, 3, 6, 0, 2, 4, 6, 5, 1, 7, 2, 3}) // from MinInt64
	f.Add([]byte{7, 1, 1, 5, 2, 5, 3, 6, 4, 4, 5, 5, 6, 6, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := byteStream(data)
		tr := s.decodeTrace()
		c := NewCursor(tr)
		if c.Trace() != tr {
			t.Fatalf("Cursor.Trace() = %p, want %p", c.Trace(), tr)
		}
		var at vclock.Time
		for q := 0; len(s) > 0 && q < 256; q++ {
			b := s.next()
			move := cursorMoves[int(b>>3)%len(cursorMoves)]
			switch b % 8 {
			case 0:
				at = math.MinInt64
			case 1:
				at = math.MaxInt64
			case 2, 3:
				if at <= math.MaxInt64-move {
					at += move
				}
			case 4:
				if at >= math.MinInt64+move {
					at -= move
				}
			case 5, 6: // on a point, or just before it
				if len(tr.points) > 0 {
					at = tr.points[int(b>>3)%len(tr.points)].T
					if b%8 == 6 && at > math.MinInt64 {
						at--
					}
				}
			case 7:
				at = vclock.Time(int64(b>>3)-16) * time.Second
			}
			got, want := c.At(at), tr.At(at)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("query %d at %d: Cursor.At %v (%#x), Trace.At %v (%#x)",
					q, at, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

// TestCursorsShareATrace reads one trace through a cursor per goroutine,
// as concurrent scenarios do (run under -race): the trace is never
// written, and each cursor tracks its own piece.
func TestCursorsShareATrace(t *testing.T) {
	tr := LiveBandwidthFactor(3, time.Hour)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewCursor(tr)
			for at := vclock.Time(w) * time.Second; at < time.Hour; at += 250 * time.Millisecond {
				if got, want := c.At(at), tr.At(at); got != want {
					t.Errorf("worker %d at %v: Cursor.At %v, Trace.At %v", w, at, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
