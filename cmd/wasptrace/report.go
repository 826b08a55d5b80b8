package main

import (
	"fmt"
	"sort"
	"strings"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// flatten returns every event of the timeline — top-level events plus
// span-nested ones, and with spans set each span as an event at its start
// — ordered by time (stable on the timeline order).
func flatten(o *obs.Observer, spans bool) []obs.Event {
	var out []obs.Event
	o.Walk(func(ev *obs.Event, sp *obs.Span) {
		if ev != nil {
			out = append(out, *ev)
			return
		}
		if spans {
			out = append(out, obs.Event{At: sp.Start, Name: sp.Name, Attrs: sp.Attrs})
		}
		out = append(out, sp.Events...)
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// endOf returns the latest timestamp in the timeline, in seconds (span
// ends included).
func endOf(o *obs.Observer) float64 {
	var end vclock.Time
	for _, ev := range flatten(o, true) {
		end = max(end, ev.At)
	}
	o.Walk(func(_ *obs.Event, sp *obs.Span) {
		if sp != nil && sp.Ended {
			end = max(end, sp.End)
		}
	})
	return end.Seconds()
}

// attrString renders an event's attrs as a "k=v k=v" list in key order,
// numbers (durations in seconds) through fmtFloat; of a repeated key, the
// last value wins.
func attrString(ev obs.Event) string {
	vals := make(map[string]obs.Val, len(ev.Attrs))
	for _, kv := range ev.Attrs {
		vals[kv.Key] = kv.Val
	}
	parts := make([]string, 0, len(vals))
	for _, k := range detutil.SortedKeys(vals) {
		text := vals[k].Text()
		if f, ok := vals[k].Num(); ok {
			text = fmtFloat(f)
		}
		parts = append(parts, k+"="+text)
	}
	return strings.Join(parts, " ")
}

// fmtFloat trims trailing zeros: 12.50 → 12.5, 3.00 → 3.
func fmtFloat(f float64) string {
	s := fmt.Sprintf("%.2f", f)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// table renders rows with aligned columns (same layout idiom as the
// experiment package's tables).
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s ", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	dashes := make([]string, len(header))
	for i, w := range widths {
		dashes[i] = strings.Repeat("-", w)
	}
	writeRow(dashes)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
