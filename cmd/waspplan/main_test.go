package main

import (
	"strings"
	"testing"
)

func TestRunAllQueries(t *testing.T) {
	for _, q := range []string{"ysb", "topk", "eoi"} {
		if err := run(q, 1, 3, 20, 10000); err != nil {
			t.Errorf("run(%q): %v", q, err)
		}
	}
}

func TestRunUnknownQuery(t *testing.T) {
	if err := run("nope", 1, 3, 20, 10000); err == nil {
		t.Fatal("unknown query accepted")
	}
}

// TestRejectsValuesThatAreNotPlanRequests: a rate that is not a finite
// positive number, or fewer than one variant or candidate, exits 2 with a
// message naming the flag and the value, before anything is planned.
func TestRejectsValuesThatAreNotPlanRequests(t *testing.T) {
	for _, args := range [][]string{
		{"-rate", "NaN"},
		{"-rate", "0"},
		{"-rate", "+Inf"},
		{"-rate", "-1"},
		{"-max-variants", "0"},
		{"-max-variants", "-1"},
		{"-top", "0"},
		{"-top", "-1"},
	} {
		var stderr strings.Builder
		if code := runMain(args, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		for _, sub := range args {
			if !strings.Contains(stderr.String(), sub) {
				t.Errorf("%v: message %q does not name %q", args, stderr.String(), sub)
			}
		}
	}
}
