package adapt

import (
	"testing"

	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/topology"
)

func sites(ids ...int) []topology.SiteID {
	out := make([]topology.SiteID, len(ids))
	for i, id := range ids {
		out[i] = topology.SiteID(id)
	}
	return out
}

func TestPlacementDiff(t *testing.T) {
	tests := []struct {
		name             string
		oldS, newS       []topology.SiteID
		wantRem, wantAdd []topology.SiteID
	}{
		{
			name: "paper example S to S'",
			oldS: sites(1, 2, 3, 4), newS: sites(3, 4, 5, 6),
			wantRem: sites(1, 2), wantAdd: sites(5, 6),
		},
		{
			name: "identical",
			oldS: sites(1, 2), newS: sites(2, 1),
			wantRem: nil, wantAdd: nil,
		},
		{
			name: "scale out",
			oldS: sites(1), newS: sites(1, 2, 2),
			wantRem: nil, wantAdd: sites(2, 2),
		},
		{
			name: "scale down",
			oldS: sites(1, 2, 2), newS: sites(1, 2),
			wantRem: sites(2), wantAdd: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rem, add := placementDiff(tt.oldS, tt.newS)
			if !equalSites(rem, tt.wantRem) || !equalSites(add, tt.wantAdd) {
				t.Fatalf("placementDiff = (%v, %v), want (%v, %v)", rem, add, tt.wantRem, tt.wantAdd)
			}
		})
	}
}

func equalSites(a, b []topology.SiteID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSameSites(t *testing.T) {
	if !sameSites(sites(1, 2, 2), sites(2, 1, 2)) {
		t.Fatal("permuted placements not equal")
	}
	if sameSites(sites(1, 2), sites(1, 2, 2)) {
		t.Fatal("different multiplicities judged equal")
	}
}

// The controller dedups a stage's task sites with physical.DistinctSites
// before judging a placement, so repeated sites must collapse in order.
func TestUniqueSites(t *testing.T) {
	in := sites(3, 1, 3, 2, 1)
	got := physical.DistinctSites(in)
	if !equalSites(got, sites(1, 2, 3)) {
		t.Fatalf("DistinctSites = %v", got)
	}
	if !equalSites(in, sites(3, 1, 3, 2, 1)) {
		t.Fatalf("DistinctSites modified its input: %v", in)
	}
}

func TestRemoveOneTask(t *testing.T) {
	got := removeOneTask(sites(1, 2, 2, 3), 2)
	if !equalSites(got, sites(1, 2, 3)) {
		t.Fatalf("removeOneTask = %v", got)
	}
}

func TestPolicyAndActionStrings(t *testing.T) {
	if PolicyWASP.String() != "wasp" || PolicyNone.String() != "no-adapt" ||
		PolicyDegrade.String() != "degrade" || PolicyReassign.String() != "re-assign" ||
		PolicyScale.String() != "scale" || PolicyReplan.String() != "re-plan" {
		t.Fatal("Policy.String mismatch")
	}
	if ActionReassign.String() != "re-assign" || ActionScaleUp.String() != "scale-up" ||
		ActionScaleOut.String() != "scale-out" || ActionScaleDown.String() != "scale-down" ||
		ActionReplan.String() != "re-plan" {
		t.Fatal("ActionKind.String mismatch")
	}
	if got := Policy(42).String(); got != "Policy(42)" {
		t.Fatalf("unknown Policy String = %q", got)
	}
	if got := ActionKind(42).String(); got != "ActionKind(42)" {
		t.Fatalf("unknown ActionKind String = %q", got)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2()
	if len(rows) != 4 {
		t.Fatalf("Table2 rows = %d, want 4", len(rows))
	}
	if rows[0].Technique != "Task Re-Assignment" || rows[0].QualityReduction != "No" {
		t.Fatalf("row 0 = %+v", rows[0])
	}
	if rows[2].Overhead != "High" || rows[2].Granularity != "Query" {
		t.Fatalf("re-planning row = %+v", rows[2])
	}
	if rows[3].QualityReduction != "Yes" {
		t.Fatalf("degradation row = %+v", rows[3])
	}
}
