package core

import (
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/obs"
	"mtpu/internal/telemetry"
)

// TestTelemetryDoesNotPerturbResults pins the observer-effect contract:
// attaching a telemetry registry must leave every simulated quantity —
// cycles, digests, gas, utilization — byte-identical to the bare run,
// for every engine including the optimistic one.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	genesis, block := buildBlock(t, 31, 96, 0.4)
	acc := New(arch.DefaultConfig())
	traces, receipts, digest, err := CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	acc.LearnHotspots(traces, 8)

	modes := append([]Mode{}, allModes...)
	modes = append(modes, ModeBlockSTM)
	tel := telemetry.New()
	head := headOf(genesis)
	for _, m := range modes {
		bare, err := acc.ReplayWith(block, traces, receipts, digest, m,
			ReplayOpts{Head: head})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		observed, err := acc.ReplayWith(block, traces, receipts, digest, m,
			ReplayOpts{Head: head, Tel: tel})
		if err != nil {
			t.Fatalf("%v with telemetry: %v", m, err)
		}
		if bare.Cycles != observed.Cycles {
			t.Errorf("%v: cycles %d != %d with telemetry", m, bare.Cycles, observed.Cycles)
		}
		if bare.StateDigest != observed.StateDigest {
			t.Errorf("%v: state digest changed under telemetry", m)
		}
		if bare.GasUsed != observed.GasUsed {
			t.Errorf("%v: gas %d != %d with telemetry", m, bare.GasUsed, observed.GasUsed)
		}
		if bare.Utilization != observed.Utilization {
			t.Errorf("%v: utilization %v != %v with telemetry", m, bare.Utilization, observed.Utilization)
		}
	}

	// The registry must actually have seen the instrumented replays.
	snap := tel.Snapshot()
	if snap.Replays != uint64(len(modes)) {
		t.Errorf("telemetry saw %d replays, want %d", snap.Replays, len(modes))
	}
	wantTxs := uint64(len(modes) * len(block.Transactions))
	if snap.ReplayTxs != wantTxs {
		t.Errorf("telemetry saw %d txs, want %d", snap.ReplayTxs, wantTxs)
	}
	if len(snap.Latency) != len(modes) {
		t.Errorf("latency sections = %d, want one per mode (%d)", len(snap.Latency), len(modes))
	}
	if snap.STM.Incarnations == 0 {
		t.Error("Block-STM replay recorded no incarnations")
	}
	if snap.STM.Incarnations < snap.STM.Aborts {
		t.Error("more aborts than incarnations")
	}
	if snap.SBufHits+snap.SBufMisses == 0 {
		t.Error("no State Buffer traffic recorded")
	}
}

// TestTelemetryCoexistsWithCollector exercises the Tee attachment: a
// cycle-obs Collector and the telemetry bridge observing the same
// replay must both see the events, and the Report must be unchanged
// relative to a Collector-only run.
func TestTelemetryCoexistsWithCollector(t *testing.T) {
	genesis, block := buildBlock(t, 33, 64, 0.3)
	acc := New(arch.DefaultConfig())
	traces, receipts, digest, err := CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}

	only, err := acc.ReplayWith(block, traces, receipts, digest, ModeSpatialTemporal,
		ReplayOpts{Obs: obs.NewCollector()})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	both, err := acc.ReplayWith(block, traces, receipts, digest, ModeSpatialTemporal,
		ReplayOpts{Obs: obs.NewCollector(), Tel: tel})
	if err != nil {
		t.Fatal(err)
	}
	if only.Obs == nil || both.Obs == nil {
		t.Fatal("collector report missing")
	}
	if only.Cycles != both.Cycles {
		t.Errorf("cycles %d != %d when teeing telemetry in", only.Cycles, both.Cycles)
	}
	if only.Obs.DB.Totals.Lookups != both.Obs.DB.Totals.Lookups {
		t.Errorf("collector DB lookups %d != %d under tee", only.Obs.DB.Totals.Lookups, both.Obs.DB.Totals.Lookups)
	}
	if tel.DBHits.Load()+tel.DBMisses.Load() == 0 {
		t.Error("telemetry bridge saw no DB traffic through the tee")
	}
}
