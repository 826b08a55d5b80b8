// Package fields is the field-read audit fixture: one field per way a
// field can be (or fail to be) read.
package fields

// Counter has one field of each kind.
type Counter struct {
	read    int // read by Value
	written int // only assigned and incremented
	stored  int // only set by a composite literal
}

// Key is read only as a map key: comparing it reads every field.
type Key struct {
	op, site int
}

// New stores every Counter field.
func New() *Counter { return &Counter{read: 1, stored: 2} }

// Bump writes without reading.
func (c *Counter) Bump() {
	c.written = 3
	c.written++
	c.written += 2
}

// Value reads one field.
func (c *Counter) Value() int { return c.read }

// Index keys a map by Key.
func Index(keys []Key) map[Key]int {
	m := map[Key]int{}
	for i, k := range keys {
		m[k] = i
	}
	return m
}
