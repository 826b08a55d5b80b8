package obs

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// WriteAudit renders the trace as a human-readable decision audit: one
// block per span tree (controller rounds, long-term rounds), with the
// diagnosis evidence, the rejected Figure-6 branches (✗), the performed
// actions (✓), and nested migration/re-plan spans indented beneath their
// parent decision.
func (o *Observer) WriteAudit(w io.Writer) error {
	if o == nil {
		return nil
	}
	children := make(map[uint64][]*Span)
	for _, e := range o.timeline {
		if e.span != nil && e.span.Parent != 0 {
			children[e.span.Parent] = append(children[e.span.Parent], e.span)
		}
	}
	// A write error sticks in bw and surfaces at Flush.
	bw := bufio.NewWriter(w)
	for _, e := range o.timeline {
		switch {
		case e.ev != nil:
			writeAuditEvent(bw, *e.ev, 0)
		case e.span.Parent == 0:
			writeAuditSpan(bw, e.span, children, 0)
		}
	}
	return bw.Flush()
}

func auditIndent(depth int) string {
	return strings.Repeat("  ", min(depth, 16))
}

func writeAuditSpan(w io.Writer, sp *Span, children map[uint64][]*Span, depth int) {
	dur := ""
	if sp.Ended && sp.End > sp.Start {
		dur = fmt.Sprintf(" (+%s)", time.Duration(sp.End-sp.Start))
	} else if !sp.Ended {
		dur = " (unfinished)"
	}
	fmt.Fprintf(w, "%st=%7.1fs %s%s%s\n", auditIndent(depth), sp.Start.Seconds(), sp.Name, formatAttrs(sp.Attrs), dur)
	// Interleave the span's events and child spans in time order; events
	// within one instant keep emission order, and a child span starting at
	// the same instant as an event follows the events recorded before it.
	kids := children[sp.ID]
	ei, ki := 0, 0
	for ei < len(sp.Events) || ki < len(kids) {
		if ki >= len(kids) || (ei < len(sp.Events) && sp.Events[ei].At <= kids[ki].Start) {
			writeAuditEvent(w, sp.Events[ei], depth+1)
			ei++
		} else {
			writeAuditSpan(w, kids[ki], children, depth+1)
			ki++
		}
	}
}

func writeAuditEvent(w io.Writer, ev Event, depth int) {
	switch ev.Name {
	case "reject":
		rest := slices.DeleteFunc(slices.Clone(ev.Attrs), func(kv KV) bool { return kv.Key == "branch" || kv.Key == "reason" })
		fmt.Fprintf(w, "%s✗ %s — %s%s\n", auditIndent(depth), ev.Get("branch").Text(), ev.Get("reason").Text(), formatAttrs(rest))
	case "action":
		fmt.Fprintf(w, "%s✓ %s op=%s: %s\n", auditIndent(depth), ev.Get("kind").Text(), ev.Get("op").Text(), ev.Get("detail").Text())
	default:
		fmt.Fprintf(w, "%s· %s%s\n", auditIndent(depth), ev.Name, formatAttrs(ev.Attrs))
	}
}

func formatAttrs(attrs []KV) string {
	out := ""
	for _, kv := range attrs {
		out += " " + kv.Key + "=" + kv.Val.Text()
	}
	return out
}

// WriteActionLog prints the adaptation log — every "action" event in the
// timeline — in the classic waspd format, and reports how many actions it
// wrote. This is the one code path all runners share for the log.
func (o *Observer) WriteActionLog(w io.Writer) (int, error) {
	events := o.Events("action")
	for _, ev := range events {
		if _, err := fmt.Fprintf(w, "  t=%5ds %-10s op=%-3s %s\n",
			int(ev.At.Seconds()), ev.Get("kind").Text(), ev.Get("op").Text(), ev.Get("detail").Text()); err != nil {
			return 0, err
		}
	}
	return len(events), nil
}
