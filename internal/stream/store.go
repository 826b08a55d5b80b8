package stream

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/state"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// MaxKeyID bounds the key ids operators index by. Ids are dense by contract;
// one at or past the bound is not believed and the event is placed by its
// key string, so a stray id costs a map lookup instead of a table the size
// of the id.
const MaxKeyID = 1 << 20

// symtab is one operator's symbol table: every key string the operator has
// met gets a dense slot, in order of arrival, and window state is indexed by
// slot. Slots never leave the operator: what moves between operators
// (SplitByKey, Merge, snapshots) is the key string, and an event's KeyID is
// only a faster way to the slot of its Key — it is translated, and checked
// against the string, on every record.
//
// The table follows the keys in use, not every key ever met: when a flush
// finds it grown past limit, the store takes a census of its windows and the
// table forgets the keys none of them holds, if those are most of it. A key
// that comes back is a new key, and so is its id — the conflict check
// reaches as far back as the table does.
type symtab struct {
	names []string         // slot → key
	slots map[string]int32 // key → slot: the way in for a key without an id
	byID  []int32          // key id → slot+1; 0 until the id's first record
	order []int32          // slots in key order; nil after a new key
	limit int              // names may number this many before the next census
}

// forgetMin is the table size a census is not worth taking under.
const forgetMin = 64

// slot returns the slot of key, reached through id when the id has been
// seen. Strings from one key table share their bytes, so the comparison that
// guards the id is a length and a pointer check.
//
//waspvet:hotpath
func (s *symtab) slot(id uint32, key string) int32 {
	if int(id) < len(s.byID) {
		if at := s.byID[id]; at != 0 {
			if s.names[at-1] != key {
				s.conflict(id, key) //waspvet:hotalloc panics: one id, two keys
			}
			return at - 1
		}
	}
	if id == 0 {
		if at, ok := s.slots[key]; ok {
			return at
		}
	}
	return s.intern(id, key) //waspvet:hotalloc first record of a key or of an id
}

// conflict reports an id that arrived with two key strings: two sources with
// different id spaces feed this operator, or an event was built by hand.
// Going on would fold one key's records into the other's accumulator.
func (s *symtab) conflict(id uint32, key string) {
	panic(fmt.Sprintf("stream: key id %d names both %q and %q", id, s.names[s.byID[id]-1], key))
}

// intern finds or creates the slot of key and, given a believable id, binds
// the id to it. Two ids may name one key (they reach the same slot); one id
// naming two keys is the conflict slot catches.
func (s *symtab) intern(id uint32, key string) int32 {
	at, ok := s.slots[key]
	if !ok {
		if s.slots == nil {
			s.slots = make(map[string]int32)
		}
		at = int32(len(s.names))
		s.names = append(s.names, key)
		s.slots[key] = at
		s.order = nil
	}
	if id != 0 && id < MaxKeyID {
		s.bind(id, at)
	}
	return at
}

// bind makes id a way to the slot at.
func (s *symtab) bind(id uint32, at int32) {
	if int(id) >= len(s.byID) {
		s.byID = append(s.byID, make([]int32, int(id)+1-len(s.byID))...)
	}
	s.byID[id] = at + 1
}

// overgrown says the table is due a census: it has outgrown what the last
// one allowed it.
func (s *symtab) overgrown() bool { return len(s.names) > max(forgetMin, s.limit) }

// forget closes a census. used marks the slots in use: those a window holds
// state under, the windows flushed just now included, so that a key set that
// recurs window after window keeps its slots. The table may grow to four
// times their number before the next census, and if it is past that now it
// is rebuilt from the used slots alone, in slot order and with their ids
// still bound; forget then returns each old slot's new one (-1 for a slot
// dropped), and nil if the table stays as it is.
func (s *symtab) forget(used []bool) []int32 {
	n := 0
	for _, u := range used {
		if u {
			n++
		}
	}
	s.limit = 4 * n
	if !s.overgrown() {
		return nil
	}
	kept := symtab{slots: make(map[string]int32, n), limit: s.limit}
	to := make([]int32, len(s.names))
	for slot, name := range s.names {
		to[slot] = -1
		if used[slot] {
			to[slot] = kept.intern(0, name)
		}
	}
	for id, at := range s.byID {
		if at != 0 && to[at-1] >= 0 {
			kept.bind(uint32(id), to[at-1])
		}
	}
	*s = kept
	return to
}

// sorted returns every slot in ascending key order: the order windows flush
// and snapshots are written in.
func (s *symtab) sorted() []int32 {
	if s.order == nil && len(s.names) > 0 {
		s.order = make([]int32, len(s.names))
		for i := range s.order {
			s.order[i] = int32(i)
		}
		slices.SortFunc(s.order, func(a, b int32) int { return cmp.Compare(s.names[a], s.names[b]) })
	}
	return s.order
}

// clone copies the table, so that state indexed by its slots can move to
// another operator as it is.
func (s *symtab) clone() symtab {
	return symtab{names: slices.Clone(s.names), slots: maps.Clone(s.slots), byID: slices.Clone(s.byID), limit: s.limit}
}

// cell is one (window, key) accumulator. A key's slot exists in every window
// once the operator has met the key; live marks the windows it has state in.
type cell[A any] struct {
	acc  A
	live bool
}

// window is one live window: its accumulators by key slot.
type window[A any] struct {
	start vclock.Time
	// maxTime is the greatest event time folded in: the Time of the results
	// the window emits (§8.3). It starts at the first event's time, since a
	// zero would outrank every event time before zero.
	maxTime vclock.Time
	cells   []cell[A]
	live    int
}

// at returns the cell of a slot, live or not.
//
//waspvet:hotpath
func (w *window[A]) at(slot int32) *cell[A] {
	if int(slot) >= len(w.cells) {
		w.grow(slot) //waspvet:hotalloc first record of a key in this window's lifetime
	}
	return &w.cells[slot]
}

func (w *window[A]) grow(slot int32) {
	w.cells = append(w.cells, make([]cell[A], int(slot)+1-len(w.cells))...)
}

// claim marks c live in w and reports whether it was not before.
//
//waspvet:hotpath
func (w *window[A]) claim(c *cell[A]) bool {
	if c.live {
		return false
	}
	c.live = true
	w.live++
	return true
}

// store is the keyed window state of one operator: the symbol table and the
// live windows in ascending start order. Few windows are live at once (the
// current one, plus late ones), and a record nearly always belongs to the
// last, so the slice is searched from the back.
type store[A any] struct {
	keys    symtab
	windows []window[A]
}

// window returns the window starting at start, creating it if need be, and
// raises its maxTime to t.
//
//waspvet:hotpath
func (s *store[A]) window(start, t vclock.Time) *window[A] {
	i := len(s.windows) - 1
	for i >= 0 && s.windows[i].start > start {
		i--
	}
	if i < 0 || s.windows[i].start != start {
		i++
		s.open(i, start, t) //waspvet:hotalloc first record of a window
	}
	w := &s.windows[i]
	if t > w.maxTime {
		w.maxTime = t
	}
	return w
}

// tumbling returns the window of the size-long tumbling grid that holds t,
// creating it if need be, and raises its maxTime to t. A record nearly always
// falls in the last window, so that one is tried first, by comparing t with
// its bounds; only a record outside it pays windowStart's division and the
// search. The window at math.MinInt64 may be cut short (see windowStart), so
// it is not tried.
//
//waspvet:hotpath
func (s *store[A]) tumbling(t vclock.Time, size time.Duration) *window[A] {
	if n := len(s.windows); n > 0 {
		// t-w.start is taken unsigned: it is exact for any t at or past the
		// start, where the signed difference may overflow.
		if w := &s.windows[n-1]; t >= w.start && w.start != math.MinInt64 && uint64(t-w.start) < uint64(size) {
			if t > w.maxTime {
				w.maxTime = t
			}
			return w
		}
	}
	return s.window(windowStart(t, size), t)
}

func (s *store[A]) open(i int, start, t vclock.Time) {
	s.windows = slices.Insert(s.windows, i, window[A]{
		start: start, maxTime: t, cells: make([]cell[A], len(s.keys.names)),
	})
}

// due is the number of windows ending at or before wm: the first so many.
func (s *store[A]) due(wm vclock.Time, size time.Duration) int {
	due := 0
	for due < len(s.windows) && windowEnd(s.windows[due].start, size) <= wm {
		due++
	}
	return due
}

// flush hands every live cell of the windows ending at or before wm to fn
// (if fn is not nil), in ascending (window, key) order, and drops those
// windows. It is also where the symbol table forgets: memory and the cost of
// a flush follow the keys the windows hold, not the keys the operator has
// ever met.
func (s *store[A]) flush(wm vclock.Time, size time.Duration, fn func(w *window[A], key string, acc *A)) {
	due := s.due(wm, size)
	var used []bool
	if due > 0 && s.keys.overgrown() {
		used = s.inUse()
	}
	if fn != nil {
		s.each(s.windows[:due], fn)
	}
	s.windows = slices.Delete(s.windows, 0, due)
	if used != nil {
		if to := s.keys.forget(used); to != nil {
			s.renumber(to)
		}
	}
}

// inUse marks the slots some window holds state under.
func (s *store[A]) inUse() []bool {
	used := make([]bool, len(s.keys.names))
	for i := range s.windows {
		for slot := range s.windows[i].cells {
			if s.windows[i].cells[slot].live {
				used[slot] = true
			}
		}
	}
	return used
}

// renumber moves every live cell to the slot forget gave its key.
func (s *store[A]) renumber(to []int32) {
	for i := range s.windows {
		w := &s.windows[i]
		cells := make([]cell[A], len(s.keys.names))
		for slot := range w.cells {
			if w.cells[slot].live {
				cells[to[slot]] = w.cells[slot]
			}
		}
		w.cells = cells
	}
}

// each visits the live cells of the given windows in (window, key) order.
func (s *store[A]) each(windows []window[A], fn func(w *window[A], key string, acc *A)) {
	for i := range windows {
		w := &windows[i]
		if w.live == 0 {
			continue
		}
		for _, slot := range s.keys.sorted() {
			if int(slot) < len(w.cells) && w.cells[slot].live {
				fn(w, s.keys.names[slot], &w.cells[slot].acc)
			}
		}
	}
}

// size is the number of live cells.
func (s *store[A]) size() int {
	total := 0
	for i := range s.windows {
		total += s.windows[i].live
	}
	return total
}

// split moves every live cell to the store of its key's partition,
// state.PartitionKey(key, n), and leaves s without windows. Keys move by
// name: each part builds its own table and so its own slots.
func (s *store[A]) split(n int) []store[A] {
	parts := make([]store[A], n)
	home := make([]int, len(s.keys.names))
	for slot, key := range s.keys.names {
		home[slot] = state.PartitionKey(key, n)
	}
	for i := range s.windows {
		w := &s.windows[i]
		for slot := range w.cells {
			if c := &w.cells[slot]; c.live {
				p := &parts[home[slot]]
				pw := p.window(w.start, w.maxTime)
				to := pw.at(p.keys.intern(0, s.keys.names[slot]))
				pw.claim(to)
				to.acc = c.acc
			}
		}
	}
	s.windows = nil
	return parts
}

// merge folds every live cell of other into s — absorb receives the cell of
// the same window and key in s and whether it was live already — and leaves
// other without windows. It stops at absorb's first error, with s partly
// merged and other untouched.
func (s *store[A]) merge(other *store[A], absorb func(dst *A, had bool, src *A, key string, start vclock.Time) error) error {
	for i := range other.windows {
		ow := &other.windows[i]
		w := s.window(ow.start, ow.maxTime)
		for slot := range ow.cells {
			if oc := &ow.cells[slot]; oc.live {
				key := other.keys.names[slot]
				c := w.at(s.keys.intern(0, key))
				if err := absorb(&c.acc, !w.claim(c), &oc.acc, key, ow.start); err != nil {
					return err
				}
			}
		}
	}
	other.windows = nil
	return nil
}
