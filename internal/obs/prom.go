package obs

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// WriteProm dumps the registry in the Prometheus text exposition format
// (one final scrape, suitable for `promtool check metrics` or offline
// ingestion). Series are sorted by name then labels, so output is
// deterministic for deterministic inputs.
func (o *Observer) WriteProm(w io.Writer) error {
	if o == nil {
		return nil
	}
	r := o.reg
	type series struct{ name, key, kind string }
	var all []series
	for key, c := range r.counters { //waspvet:unordered sorted below
		all = append(all, series{c.name, key, "counter"})
	}
	for key, g := range r.gauges { //waspvet:unordered sorted below
		all = append(all, series{g.name, key, "gauge"})
	}
	for key, h := range r.hists { //waspvet:unordered sorted below
		all = append(all, series{h.name, key, "histogram"})
	}
	slices.SortFunc(all, func(a, b series) int {
		return cmp.Or(cmp.Compare(a.name, b.name), cmp.Compare(a.key, b.key), cmp.Compare(a.kind, b.kind))
	})

	// A write error sticks in bw and surfaces at Flush.
	bw := bufio.NewWriter(w)
	lastName := ""
	for _, s := range all {
		if s.name != lastName {
			lastName = s.name
			if help, ok := r.help[s.name]; ok {
				fmt.Fprintf(bw, "# HELP %s %s\n", s.name, help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.name, s.kind)
		}
		switch s.kind {
		case "counter":
			fmt.Fprintf(bw, "%s %s\n", s.key, formatFloat(r.counters[s.key].v))
		case "gauge":
			fmt.Fprintf(bw, "%s %s\n", s.key, formatFloat(r.gauges[s.key].v))
		default:
			writePromHistogram(bw, r.hists[s.key])
		}
	}
	return bw.Flush()
}

// writePromHistogram writes the cumulative bucket series plus _sum and
// _count for one histogram series.
func writePromHistogram(w io.Writer, h *Histogram) {
	base, labels := splitSeries(h.series)
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", base, withLabel(labels, "le", formatFloat(bound)), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket%s %d\n", base, withLabel(labels, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, formatFloat(h.sum))
	fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.count)
}

// splitSeries splits `name{labels}` into name and `{labels}` (labels may
// be empty).
func splitSeries(series string) (name, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], series[i:]
	}
	return series, ""
}

// withLabel inserts an extra label into a `{...}` label block (which may
// be empty).
func withLabel(labels, k, v string) string {
	extra := k + "=" + strconv.Quote(v)
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}
