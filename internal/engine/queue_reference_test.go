package engine

import (
	"math"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// refQueue is the cohort queue with nothing cached: a plain slice of
// cohorts, no head index, no compaction and no running total. Its event
// count is a fresh sum over the items, and it is empty exactly when the
// slice is, so it cannot disagree with itself about custody.
type refQueue struct{ items []cohort }

func (r *refQueue) push(born vclock.Time, count, worth float64, raw bool) {
	if count <= 0 {
		return
	}
	if n := len(r.items); n > 0 && r.items[n-1].born == born && r.items[n-1].raw == raw {
		tail := &r.items[n-1]
		tail.worth = (tail.count*tail.worth + count*worth) / (tail.count + count)
		tail.count += count
		return
	}
	r.items = append(r.items, cohort{born: born, count: count, worth: worth, raw: raw})
}

func (r *refQueue) len() float64 {
	var n float64
	for _, c := range r.items {
		n += c.count
	}
	return n
}

func (r *refQueue) empty() bool { return len(r.items) == 0 }

// popInto pops whole head cohorts while they fit the budget n (within a
// tolerance relative to n) and splits the first one that does not.
func (r *refQueue) popInto(n float64) []cohort {
	tol := 1e-9 * n
	var out []cohort
	for n > tol && len(r.items) > 0 {
		c := &r.items[0]
		if c.count <= n+tol {
			out = append(out, *c)
			n -= c.count
			r.items = r.items[1:]
			continue
		}
		out = append(out, cohort{born: c.born, count: n, worth: c.worth, raw: c.raw})
		c.count -= n
		n = 0
	}
	return out
}

func (r *refQueue) popHead() []cohort {
	if len(r.items) == 0 {
		return nil
	}
	c := r.items[0]
	r.items = r.items[1:]
	return []cohort{c}
}

func (r *refQueue) popAll() []cohort {
	out := r.items
	r.items = nil
	return out
}

// queueOp is one decoded fuzz operation.
type queueOp struct {
	kind   byte // 0 push, 1 popInto, 2 popHead, 3 popAll
	born   vclock.Time
	count  float64 // push: events; popInto: absolute budget when ofLen < 0
	worth  float64
	raw    bool
	ofLen  float64 // popInto: budget as a multiple of len(), when ≥ 0
	source []byte  // the bytes that encode the op
}

// logScale maps a 16-bit draw onto [10^lo, 10^hi], uniform in the exponent.
func logScale(u uint16, lo, hi float64) float64 {
	return math.Pow(10, lo+(hi-lo)*float64(u)/math.MaxUint16)
}

// queueOpsFromBytes decodes a byte string into queue operations: pushes
// of 1e-15…1e9 events worth 1…1e15 each (born advancing 0–2 ticks, so
// tail merges happen), popInto with a budget of 0–1.27 × len() or an
// absolute 1e-15…1e9, popHead and popAll.
func queueOpsFromBytes(data []byte) []queueOp {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	next16 := func() uint16 { return uint16(next())<<8 | uint16(next()) }
	var ops []queueOp
	var born vclock.Time
	for len(data) > 0 {
		start := data
		b := next()
		op := queueOp{kind: b % 4}
		switch op.kind {
		case 0:
			born += vclock.Time(b>>2%3) * vclock.Time(250*time.Millisecond)
			op.born, op.raw = born, b&0x80 != 0
			op.count = logScale(next16(), -15, 9)
			op.worth = logScale(next16(), 0, 15)
		case 1:
			if f := next(); f < 128 {
				op.ofLen = float64(f) / 100
			} else {
				op.ofLen = -1
				op.count = logScale(next16(), -15, 9)
			}
		}
		op.source = start[:len(start)-len(data)]
		ops = append(ops, op)
	}
	return ops
}

// queueOpBytes encodes a push or an absolute-budget popInto, for seeds.
func queueOpBytes(kind byte, count, worth float64) []byte {
	inv := func(x, lo, hi float64) (byte, byte) {
		u := uint16(math.Round((math.Log10(x) - lo) / (hi - lo) * math.MaxUint16))
		return byte(u >> 8), byte(u)
	}
	switch kind {
	case 0:
		c1, c2 := inv(count, -15, 9)
		w1, w2 := inv(worth, 0, 15)
		return []byte{0x04, c1, c2, w1, w2} // born one tick after the previous push
	case 1:
		c1, c2 := inv(count, -15, 9)
		return []byte{1, 0xff, c1, c2}
	}
	return []byte{kind}
}

// FuzzQueueMatchesReference holds the cohort queue to refQueue over
// arbitrary push/popInto/popHead/popAll sequences. After every operation
// the popped cohorts agree (born, raw and worth exactly, count within
// 1e-9 relative), empty() agrees, len() is positive exactly when the
// queue is non-empty, a pop that empties the queue leaves it rewound to
// the start of its backing array, and pushed events and source
// equivalents equal the popped ones plus what the queue still holds.
func FuzzQueueMatchesReference(f *testing.F) {
	// An upper-tree YSB cohort (4.27e-10 events worth 1e15 each) drained
	// by a pop of len().
	f.Add(append(queueOpBytes(0, 4.27e-10, 1e15), 1, 100))
	// A 1e-12-event cohort behind a 1000.1-event one popped whole, then a
	// pop of len().
	f.Add(append(append(append(queueOpBytes(0, 1000.1, 1), queueOpBytes(0, 1e-12, 5e11)...),
		queueOpBytes(1, 1000.1, 0)...), 1, 100))
	f.Add([]byte{0x80, 0xff, 0xff, 0xff, 0xff, 0x84, 0, 0, 0, 0, 1, 50, 2, 0x00, 9, 9, 9, 9, 1, 127, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q cohortQueue
		var ref refQueue
		var pushed, pushedSrc, popped, poppedSrc float64
		for i, op := range queueOpsFromBytes(data) {
			var got, want []cohort
			switch op.kind {
			case 0:
				q.push(op.born, op.count, op.worth, op.raw)
				ref.push(op.born, op.count, op.worth, op.raw)
				pushed += op.count
				pushedSrc += op.count * op.worth
			case 1:
				n := op.count
				if op.ofLen >= 0 {
					n = op.ofLen * q.len()
				}
				got, want = q.popInto(n, nil), ref.popInto(n)
			case 2:
				if c, ok := q.popHead(); ok {
					got = []cohort{c}
				}
				want = ref.popHead()
			case 3:
				got, want = q.popAll(), ref.popAll()
			}
			if len(got) != len(want) {
				t.Fatalf("op %d %x: popped %+v, want %+v", i, op.source, got, want)
			}
			for k := range got {
				g, w := got[k], want[k]
				if g.born != w.born || g.raw != w.raw || g.worth != w.worth ||
					math.Abs(g.count-w.count) > 1e-9*w.count {
					t.Fatalf("op %d %x: popped %+v, want %+v", i, op.source, got, want)
				}
				popped += g.count
				poppedSrc += g.src()
			}
			if q.empty() != ref.empty() {
				t.Fatalf("op %d %x: empty() = %v, reference %v (%d cohorts)", i, op.source, q.empty(), ref.empty(), len(ref.items))
			}
			if (q.len() > 0) != !q.empty() {
				t.Fatalf("op %d %x: len() = %v with empty() = %v", i, op.source, q.len(), q.empty())
			}
			if op.kind != 0 && q.empty() && (q.head != 0 || len(q.items) != 0) {
				t.Fatalf("op %d %x: drained queue not rewound: head %d, %d items", i, op.source, q.head, len(q.items))
			}
			if _, ok := q.oldestBorn(); ok == q.empty() {
				t.Fatalf("op %d %x: oldestBorn ok = %v with empty() = %v", i, op.source, ok, q.empty())
			}
			if d := pushed - popped - q.len(); math.Abs(d) > 1e-9*pushed {
				t.Fatalf("op %d %x: count not conserved: pushed %v, popped %v, held %v", i, op.source, pushed, popped, q.len())
			}
			if d := pushedSrc - poppedSrc - q.srcTotal(); math.Abs(d) > 1e-9*pushedSrc {
				t.Fatalf("op %d %x: source equivalents not conserved: pushed %v, popped %v, held %v", i, op.source, pushedSrc, poppedSrc, q.srcTotal())
			}
		}
	})
}
