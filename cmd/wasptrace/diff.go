package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"reflect"
	"strings"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/obs"
)

// maxDiffDetail caps how many differing lines get a field-level breakdown
// before the report switches to a bare count.
const maxDiffDetail = 20

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want exactly two input files, got %d", fs.NArg())
	}
	pathA, pathB := fs.Arg(0), fs.Arg(1)
	linesA, err := runLines(pathA)
	if err != nil {
		return err
	}
	linesB, err := runLines(pathB)
	if err != nil {
		return err
	}

	var differing int
	for i := 0; i < max(len(linesA), len(linesB)); i++ {
		var a, b string
		if i < len(linesA) {
			a = linesA[i]
		}
		if i < len(linesB) {
			b = linesB[i]
		}
		if a == b {
			continue
		}
		differing++
		if differing > maxDiffDetail {
			continue
		}
		switch {
		case a == "":
			fmt.Printf("line %d: only in %s:\n  %s\n", i+1, pathB, clip(b))
		case b == "":
			fmt.Printf("line %d: only in %s:\n  %s\n", i+1, pathA, clip(a))
		default:
			fmt.Printf("line %d: differs:\n", i+1)
			for _, d := range fieldDiff(a, b) {
				fmt.Printf("  %s\n", d)
			}
		}
	}
	if differing == 0 {
		fmt.Printf("identical: %d line(s)\n", len(linesA))
		return nil
	}
	if differing > maxDiffDetail {
		fmt.Printf("... and %d more differing line(s)\n", differing-maxDiffDetail)
	}
	return diffError{n: differing}
}

// runLines reads a run artifact and returns the lines WriteRun writes
// for it: the file's own lines, once the reader has accepted them.
func runLines(path string) ([]string, error) {
	o, f, err := readRun(path)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if err := obs.WriteRun(&b, o, f); err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n"), nil
}

// fieldDiff compares two JSON lines field by field. Non-JSON lines fall
// back to printing both sides whole.
func fieldDiff(a, b string) []string {
	var objA, objB map[string]interface{}
	if json.Unmarshal([]byte(a), &objA) != nil || json.Unmarshal([]byte(b), &objB) != nil {
		return []string{"a: " + clip(a), "b: " + clip(b)}
	}
	keys := maps.Clone(objA)
	maps.Copy(keys, objB)
	var out []string
	for _, k := range detutil.SortedKeys(keys) {
		va, okA := objA[k]
		vb, okB := objB[k]
		switch {
		case !okA:
			out = append(out, fmt.Sprintf("%s: only in b: %s", k, clip(fmtJSON(vb))))
		case !okB:
			out = append(out, fmt.Sprintf("%s: only in a: %s", k, clip(fmtJSON(va))))
		case !reflect.DeepEqual(va, vb):
			out = append(out, fmt.Sprintf("%s: %s != %s", k, clip(fmtJSON(va)), clip(fmtJSON(vb))))
		}
	}
	if len(out) == 0 {
		// Same fields, different serialization (key order, whitespace).
		out = []string{"a: " + clip(a), "b: " + clip(b)}
	}
	return out
}

// fmtJSON prints one JSON field value compactly and deterministically.
func fmtJSON(v interface{}) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return fmtFloat(x)
	case nil:
		return "null"
	default:
		b, _ := json.Marshal(x) // a decoded JSON value always encodes
		return string(b)
	}
}

// clip bounds one value's printout so a huge span line stays readable.
func clip(s string) string {
	const max = 160
	if len(s) <= max {
		return s
	}
	return s[:max] + "..."
}
