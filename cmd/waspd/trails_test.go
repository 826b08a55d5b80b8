package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// decisionTrails are the runs whose stdout and run artifact pin the
// controller's decisions: every -policy arm on a workload and bandwidth
// script that makes the adapting arms act, a WAN-plane chaos run with
// checkpoints, and a crash the recovery ladder heals. Each digest is the
// SHA-256 of the bytes, in hex.
var decisionTrails = []struct {
	name           string
	args           []string
	stdout, obsOut string
}{
	{"no-adapt", []string{"-policy", "no-adapt", "-workload", "1,2,1", "-bandwidth", "1,1,0.5"},
		"46f688e570260f9cfac578a66ce2add4a221d379f0e76d21e9b192386c631d47",
		"b5bbcaacb5a4b3836e0f39ec365ac7119d326f4cea2d6349d9462ee775613492"},
	{"degrade", []string{"-policy", "degrade", "-workload", "1,2,1", "-bandwidth", "1,1,0.5"},
		"5ed16d68cb0591aa8d9ffb159904fe73e61d87237b51be7a42ae5f1c86d8007c",
		"2e1c5e6a7b8fb11a217e68d362beddbe24a06acc2e387e5553da9071f34ca420"},
	{"re-assign", []string{"-policy", "re-assign", "-workload", "1,2,1", "-bandwidth", "1,1,0.5"},
		"bba64f90219e622c49018b8a5b8c10c7dfbcba3caede3408375fd1cd06fe47fe",
		"1fb76347bcc71d1d16491d6af11de2fc27144941755843cd530f0fdec8d6ff8e"},
	{"scale", []string{"-policy", "scale", "-workload", "1,2,1", "-bandwidth", "1,1,0.5"},
		"ecae7bab9e6c55894cff7ea5938393d6321081a2c781579374f91078d2a5893b",
		"0383a5c7485b1d196ea34a77ebe79f6f7266384c44b079eb7d5f797a438fa136"},
	{"re-plan", []string{"-policy", "re-plan", "-workload", "1,2,1", "-bandwidth", "1,1,0.5"},
		"9bbc791bb85a91b273d3aa9df4ae2b4985fc4ddab4fcab49c14afb1e15be15f2",
		"9e767043add07acfc7f66b7109e474f731e34d225eaf8e19b16b59cf9f7353ae"},
	{"wasp", []string{"-policy", "wasp", "-workload", "1,2,1", "-bandwidth", "1,1,0.5"},
		"710d7181f36aecf0994333deb111c519f4f58869b200d2eea880b762da05bc44",
		"09481a5c7331d07d6f7de82956863066f062b94997ef749cb8fcedade679143b"},
	{"ctrl chaos", []string{"-ctrl", "-chaos-seed", "7", "-checkpoint-every", "30s"},
		"6c22431b6a4d45ff665cec108f58295f53d80c992ae1d25924a4c7f463b78201",
		"ef913b4c10799b3be71a7e5bcbd00f8dc1beb1d015f81ee9eba66feb22ae2600"},
	{"crash", []string{"-fault", "crash@5m:site=8,for=2m", "-checkpoint-every", "30s"},
		"1e5c4c15c1283031edfef04f4eafce895b8e03b23d320ca79b15acae0d6327f1",
		"1ffd901f3c8019f60564f115de52f8d9f7bd68cca61818e18a4a9f8467768982"},
}

// TestDecisionTrailsPinned holds the controller's decisions to their
// digests: the adaptation log in stdout and the decision spans, rejects
// and actions in the -obs-out artifact of each run in decisionTrails must
// be byte for byte what they were when pinned. A change to the controller
// that is meant to decide the same way passes it unchanged; one that
// changes a decision must re-pin and say why. The crash run must still
// reach the recovery ladder's two outcomes.
func TestDecisionTrailsPinned(t *testing.T) {
	for _, tr := range decisionTrails {
		stdout, artifact := runCaptured(t, tr.args)
		if got := digest(stdout); got != tr.stdout {
			t.Errorf("%s: stdout digest %s, want %s", tr.name, got, tr.stdout)
		}
		if got := digest(artifact); got != tr.obsOut {
			t.Errorf("%s: -obs-out digest %s, want %s", tr.name, got, tr.obsOut)
		}
		if tr.name == "crash" {
			for _, ev := range []string{`"name":"recovery.complete"`, `"name":"recovery.degraded"`} {
				if n := strings.Count(string(artifact), ev); n != 2 {
					t.Errorf("crash: %d %s events, want 2", n, ev)
				}
			}
		}
	}
}

// runCaptured runs waspd with args and -obs-out, and returns what it wrote
// to stdout and the artifact. It fails the test unless the run exits 0.
func runCaptured(t *testing.T, args []string) (stdout, artifact []byte) {
	t.Helper()
	dir := t.TempDir()
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	var stderr bytes.Buffer
	path := filepath.Join(dir, "run.jsonl")
	code := runMain(append(append([]string(nil), args...), "-obs-out", path), &stderr)
	os.Stdout = saved
	if code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
	}
	if stdout, err = os.ReadFile(out.Name()); err != nil {
		t.Fatal(err)
	}
	if artifact, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return stdout, artifact
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
