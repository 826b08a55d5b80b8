package adapt

import (
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/trace"
)

var allPolicies = []Policy{PolicyNone, PolicyDegrade, PolicyReassign, PolicyScale, PolicyReplan, PolicyWASP}

func TestParsePolicy(t *testing.T) {
	tests := []struct {
		give    string
		want    Policy
		wantErr bool
	}{
		{give: "wasp", want: PolicyWASP},
		{give: "WASP", want: PolicyWASP},
		{give: "none", want: PolicyNone},
		{give: "no-adapt", want: PolicyNone},
		{give: "degrade", want: PolicyDegrade},
		{give: "re-assign", want: PolicyReassign},
		{give: "reassign", want: PolicyReassign},
		{give: "scale", want: PolicyScale},
		{give: "replan", want: PolicyReplan},
		{give: "Re-Plan", want: PolicyReplan},
		{give: "bogus", wantErr: true},
		{give: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParsePolicy(tt.give)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParsePolicy(%q) accepted as %v", tt.give, got)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", tt.give, got, err)
		}
	}
	// Every policy's name parses back to it, and every name the help text
	// lists parses.
	for _, p := range allPolicies {
		if got, err := ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParsePolicy(%v.String()) = %v, %v", p, got, err)
		}
	}
	for _, name := range PolicyNames() {
		if _, err := ParsePolicy(name); err != nil {
			t.Errorf("PolicyNames lists %q, which does not parse: %v", name, err)
		}
	}
}

// TestPolicyLevers asks the policy table the five questions the controller
// asks it, and checks each answer against the comparison the controller
// wrote out before the table existed.
func TestPolicyLevers(t *testing.T) {
	questions := []struct {
		name string
		got  func(policyRow) bool
		want func(Policy) bool
	}{
		{"a round acts", policyRow.adapts,
			func(p Policy) bool { return p != PolicyNone && p != PolicyDegrade }},
		{"recovery re-places", policyRow.adapts,
			func(p Policy) bool { return p != PolicyNone && p != PolicyDegrade }},
		{"scales down", func(l policyRow) bool { return l.scale },
			func(p Policy) bool { return p == PolicyScale || p == PolicyWASP }},
		{"runs long-term re-plans", func(l policyRow) bool { return l.replan },
			func(p Policy) bool { return p == PolicyWASP || p == PolicyReplan }},
		// Only a policy with the scale lever reaches scaleForCompute.
		{"scale-up may fall back to re-plan", func(l policyRow) bool { return l.scale && l.replan },
			func(p Policy) bool { return p == PolicyWASP }},
	}
	for _, p := range allPolicies {
		for _, q := range questions {
			if got, want := q.got(p.row()), q.want(p); got != want {
				t.Errorf("%v: %s = %v, want %v", p, q.name, got, want)
			}
		}
	}
}

func TestPolicyOutsideTheTable(t *testing.T) {
	for _, p := range []Policy{0, -1, 42} {
		if r := p.row(); len(r.names) != 0 || r.adapts() {
			t.Errorf("%d: row %+v, want the empty row", int(p), r)
		}
	}
	if got := Policy(42).String(); got != "Policy(42)" {
		t.Fatalf("Policy(42).String() = %q", got)
	}
	// The same network bottleneck TestWASPReassignsNetworkBottleneck
	// re-assigns away.
	tb := newTestbed(t, engine.Config{}, Config{Policy: Policy(42)}, 10000, 1, 8e6)
	tb.net.SetLinkFactor(0, 1, trace.Constant(4.0/160.0))
	tb.run(t, 400*time.Second)
	if n := len(tb.ctl.Actions()); n != 0 {
		t.Fatalf("Policy(42) performed %d actions", n)
	}
}
