package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtpu/internal/telemetry"
)

// notDirPath returns a ledger path that cannot be created: its parent
// is a regular file, so opening fails with ENOTDIR even when the test
// runs with broad filesystem permissions.
func notDirPath(t *testing.T) string {
	t.Helper()
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(blocker, "ledger.jsonl")
}

func TestVersionExitsZero(t *testing.T) {
	if code := realMain([]string{"-version"}); code != 0 {
		t.Fatalf("-version exited %d", code)
	}
}

func TestNoWorkExitsTwo(t *testing.T) {
	if code := realMain(nil); code != 2 {
		t.Fatalf("no flags exited %d, want 2 (usage error)", code)
	}
}

func TestBadSpecExitsTwo(t *testing.T) {
	if code := realMain([]string{"-source", "blocks=0"}); code != 2 {
		t.Fatalf("invalid spec exited %d, want 2", code)
	}
	if code := realMain([]string{"-source", "blocks=4", "-mode", "no-such-engine"}); code != 2 {
		t.Fatalf("unknown engine exited %d, want 2", code)
	}
	if code := realMain([]string{"-source", "blocks=4", "-mode", "all", "-addr", "127.0.0.1:0"}); code != 2 {
		t.Fatalf("-mode all with network ingest exited %d, want 2", code)
	}
}

// TestSourceRunWritesLedger is the happy path: a short in-process
// stream drains cleanly, exits zero, and the ledger entry carries the
// serve workloads, the build fingerprint and the stream telemetry.
func TestSourceRunWritesLedger(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "serve.jsonl")
	code := realMain([]string{
		"-source", "blocks=6,txs=8,dep=0.2,seed=3",
		"-mode", "scalar", "-shadow-sample", "1",
		"-ledger", ledger,
	})
	if code != 0 {
		t.Fatalf("source run exited %d", code)
	}
	art, err := telemetry.LoadArtifact(ledger)
	if err != nil {
		t.Fatalf("loading ledger: %v", err)
	}
	var tps, bps bool
	for _, w := range art.Workloads {
		if strings.HasPrefix(w.Key, "serve/scalar/") {
			switch w.Unit {
			case "tx/s":
				tps = w.Value > 0
			case "blocks/s":
				bps = w.Value > 0
			}
		}
	}
	if !tps || !bps {
		t.Fatalf("ledger missing serve workloads (tx/s=%v blocks/s=%v): %+v", tps, bps, art.Workloads)
	}
}

// TestScenarioSourceRunWritesLedger drives a Zipfian scenario spec
// through the same path: chain verification on, every block
// shadow-validated, and a ledger key naming the scenario shape.
func TestScenarioSourceRunWritesLedger(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "serve.jsonl")
	code := realMain([]string{
		"-source", "scenario=oracle,blocks=6,txs=8,skew=1.2,seed=3",
		"-mode", "scalar", "-shadow-sample", "1", "-verify-chain",
		"-ledger", ledger,
	})
	if code != 0 {
		t.Fatalf("scenario source run exited %d", code)
	}
	art, err := telemetry.LoadArtifact(ledger)
	if err != nil {
		t.Fatalf("loading ledger: %v", err)
	}
	found := false
	for _, w := range art.Workloads {
		if strings.HasPrefix(w.Key, "serve/scalar/oracle-blocks6-txs8-skew1.20-pus") && w.Unit == "tx/s" {
			found = w.Value > 0
		}
	}
	if !found {
		t.Fatalf("ledger missing scenario serve workload: %+v", art.Workloads)
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
		if code := realMain([]string{"-source", src, "-mode", "scalar"}); code != 2 {
			t.Errorf("-source %s exited %d, want 2", src, code)
		}
	}
}

// TestUnwritableLedgerExitsNonzero: a run that cannot record its ledger
// entry must fail loudly, not drop the record.
func TestUnwritableLedgerExitsNonzero(t *testing.T) {
	code := realMain([]string{
		"-source", "blocks=2,txs=4,seed=1",
		"-mode", "scalar", "-ledger", notDirPath(t),
	})
	if code == 0 {
		t.Fatal("unwritable ledger path exited 0")
	}
}
