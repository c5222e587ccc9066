package main

import (
	"io"
	"strings"
	"testing"
)

// serve runs realMain with args and returns its exit code and standard
// output.
func serve(args ...string) (int, string) {
	var out strings.Builder
	code := realMain(args, &out)
	return code, out.String()
}

func TestVersionExitsZero(t *testing.T) {
	if code := realMain([]string{"-version"}, io.Discard); code != 0 {
		t.Fatalf("-version exited %d", code)
	}
}

func TestNoWorkExitsTwo(t *testing.T) {
	if code := realMain(nil, io.Discard); code != 2 {
		t.Fatalf("no flags exited %d, want 2 (usage error)", code)
	}
}

func TestBadSpecExitsTwo(t *testing.T) {
	if code := realMain([]string{"-source", "blocks=0"}, io.Discard); code != 2 {
		t.Fatalf("invalid spec exited %d, want 2", code)
	}
	if code := realMain([]string{"-source", "blocks=4", "-mode", "no-such-engine"}, io.Discard); code != 2 {
		t.Fatalf("unknown engine exited %d, want 2", code)
	}
	if code := realMain([]string{"-source", "blocks=4", "-mode", "all", "-addr", "127.0.0.1:0"}, io.Discard); code != 2 {
		t.Fatalf("-mode all with network ingest exited %d, want 2", code)
	}
}

// TestSourceRunReportsEveryBlock is the happy path: a short in-process
// stream drains cleanly, exits zero, and the rendered service report
// shows every block accepted, committed and shadow-validated.
func TestSourceRunReportsEveryBlock(t *testing.T) {
	code, out := serve("-source", "blocks=6,txs=8,dep=0.2,seed=3",
		"-mode", "scalar", "-shadow-sample", "1")
	if code != 0 {
		t.Fatalf("source run exited %d", code)
	}
	for _, want := range []string{
		"stream report (scalar)",
		"accepted=6 rejected=0 invalid=0 committed=6",
		"checks=6 fails=0",
		"height=6 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestScenarioSourceRunReportsEveryBlock drives a Zipfian scenario spec
// through the same path, with chain verification on and every block
// shadow-validated.
func TestScenarioSourceRunReportsEveryBlock(t *testing.T) {
	code, out := serve("-source", "scenario=oracle,blocks=6,txs=8,skew=1.2,seed=3",
		"-mode", "scalar", "-shadow-sample", "1", "-verify-chain")
	if code != 0 {
		t.Fatalf("scenario source run exited %d", code)
	}
	for _, want := range []string{"committed=6", "checks=6 fails=0", "height=6 "} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestBadScenarioSpecExitsTwo: scenario spec validation reaches the CLI,
// including the account-pool floors of the scenarios that draw fixed
// roles from the pool's tail (a smaller pool used to index before the
// pool and panic).
func TestBadScenarioSpecExitsTwo(t *testing.T) {
	for _, src := range []string{
		"scenario=bogus",
		"scenario=dex,skew=NaN",
		"scenario=airdrop,blocks=2,txs=8,accounts=5",
		"scenario=oracle,blocks=2,txs=64,accounts=4",
		`{"kind":"oracle","blocks":2,"txs":64,"accounts":4}`,
		`{"kind":"mixed","txs":8}`, // a single block is not a stream
	} {
		if code := realMain([]string{"-source", src, "-mode", "scalar"}, io.Discard); code != 2 {
			t.Errorf("-source %s exited %d, want 2", src, code)
		}
	}
}
