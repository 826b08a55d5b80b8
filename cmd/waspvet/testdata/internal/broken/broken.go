// Package broken is the load-failure fixture: it does not type-check, so
// waspvet must exit 2 naming the type error, not lint the package and
// report the wall-clock read beside it.
package broken

import "time"

// Stamp reads the wall clock beside a type error.
func Stamp() (time.Time, int) {
	return time.Now(), "not an int" + undefinedThing
}
