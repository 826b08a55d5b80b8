// Fixture for the maprange check: order-sensitive map-range bodies are
// flagged, returns of the first entry visited included; per-key writes,
// loop-local state, returns that name no entry or leave only a function
// literal, and waived ranges are not.
package maprange

import "fmt"

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m { // want "appends to keys declared outside the loop"
		keys = append(keys, k)
	}
	return keys
}

func badFloatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want "accumulates floating-point into sum"
		sum += v
	}
	return sum
}

func badSend(m map[string]int, ch chan string) {
	for k := range m { // want "sends on a channel"
		ch <- k
	}
}

type holder struct{ last string }

func badFieldWrite(m map[string]int, h *holder) {
	for k := range m { // want "writes field h.last of a value declared outside the loop"
		h.last = k
	}
}

// Integer accumulation is exactly commutative: no diagnostic.
func fineIntSum(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

// Per-key map writes touch each entry once: no diagnostic.
func fineNormalize(m map[string]float64, n float64) {
	for k := range m {
		m[k] /= n
	}
}

// Loop-local state is per-iteration: no diagnostic.
func fineLocal(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var widened []int
		widened = append(widened, vs...)
		total += len(widened)
	}
	return total
}

// A sanctioned helper collects keys for sorting under a waiver.
func waivedCollect(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	//waspvet:unordered fixture: keys are sorted by the caller before use
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func badReturnKey(m map[int]bool) (int, bool) {
	for k, ok := range m { // want "returns a result built from the range key or value"
		if !ok {
			return k, false
		}
	}
	return 0, true
}

func badReturnValue(m map[string]int) error {
	for _, v := range m { // want "returns a result built from the range key or value"
		if v < 0 {
			return fmt.Errorf("negative %d", v)
		}
	}
	return nil
}

// A return that names no entry answers the same in any visit order.
func fineReturnConstant(m map[string]int) bool {
	for _, v := range m {
		if v < 0 {
			return false
		}
	}
	return true
}

// A return inside a function literal leaves only the literal.
func fineReturnInLiteral(m map[string]int) int {
	total := 0
	for k := range m {
		total += func() int { return len(k) }()
	}
	return total
}
