package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// runMain invokes realMain with a fresh global flag set, restoring the
// process state afterwards (realMain registers its flags on
// flag.CommandLine at call time).
func runMain(t *testing.T, args ...string) int {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	flag.CommandLine = flag.NewFlagSet("mtpu-run", flag.ExitOnError)
	os.Args = append([]string{"mtpu-run"}, args...)
	return realMain()
}

// TestUnwritableTraceOutExitsNonzero: a run whose timeline cannot be
// written must exit non-zero — and because realMain returns instead of
// calling os.Exit, the deferred profile/telemetry shutdowns still ran.
func TestUnwritableTraceOutExitsNonzero(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	code := runMain(t, "-txs", "8", "-mode", "scalar",
		"-trace-out", filepath.Join(blocker, "trace.json"))
	if code == 0 {
		t.Fatal("unwritable -trace-out path exited 0")
	}
}

func TestRunExitsZero(t *testing.T) {
	if code := runMain(t, "-txs", "8", "-mode", "scalar"); code != 0 {
		t.Fatalf("run exited %d", code)
	}
}

func TestVersionExitsZero(t *testing.T) {
	if code := runMain(t, "-version"); code != 0 {
		t.Fatalf("-version exited %d", code)
	}
}

// TestDiffInvalidSpecExitsOne: -diff rejects a spec its generator
// cannot honour with an error — account pools too small for the
// voters of mixed and erc20 blocks used to divide by zero, and an
// unknown batch contract used to pass validation — instead of a panic.
func TestDiffInvalidSpecExitsOne(t *testing.T) {
	for _, spec := range []string{
		`{"workload":{"kind":"mixed","txs":8,"accounts":1}}`,
		`{"workload":{"kind":"erc20","txs":8,"share":0.5,"accounts":1}}`,
		`{"workload":{"kind":"batch","txs":4,"contract":"Nope"}}`,
	} {
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		if code := runMain(t, "-mode", "scalar", "-diff", path); code != 1 {
			t.Errorf("-diff %s exited %d, want 1", spec, code)
		}
	}
}
