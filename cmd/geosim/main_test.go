package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// geosimArg, as the first argument of the test binary, makes it run
// geosim's main with the remaining arguments instead of the tests, so each
// test sees the real process's output and exit status.
const geosimArg = "run-geosim"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == geosimArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runGeosim runs geosim with args in a child process and returns its
// combined output and exit error.
func runGeosim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(exe, append([]string{geosimArg}, args...)...).CombinedOutput()
	return string(out), err
}

func wantLines(t *testing.T, out string, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if !strings.Contains(out, l) {
			t.Errorf("output lacks %q:\n%s", l, out)
		}
	}
}

func TestReplayRun(t *testing.T) {
	out, err := runGeosim(t)
	if err != nil {
		t.Fatalf("geosim: %v\n%s", err, out)
	}
	wantLines(t, out,
		"workload: LU × 20 iterations on 64 processes (replay engine)",
		"mapper:   Geo-distributed",
		"Baseline (random ×10)",
		"communication improvement:",
		"overall improvement:",
	)
}

// The fault-injection smoke: the FlakyWAN replay, its fault report and
// the failure-aware remap must run to completion.
func TestFlakyWANRun(t *testing.T) {
	out, err := runGeosim(t, "-app", "LU", "-n", "64", "-faults", "FlakyWAN")
	if err != nil {
		t.Fatalf("geosim: %v\n%s", err, out)
	}
	wantLines(t, out,
		"communication improvement:",
		"-- fault injection: FlakyWAN (replay engine",
		"fault report (stale placement): fault report (FlakyWAN):",
		"stale comm under faults:",
		"failure-aware remap:",
	)
}

func TestUnknownEngineFails(t *testing.T) {
	out, err := runGeosim(t, "-engine", "bogus")
	if err == nil {
		t.Fatalf("geosim -engine bogus exited 0:\n%s", out)
	}
	wantLines(t, out, `unknown engine "bogus"`)
}
