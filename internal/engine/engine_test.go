package engine_test

import (
	"reflect"
	"strings"
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/engine"
	"mtpu/internal/mvstate"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

func buildBlock(t *testing.T, seed int64, n int, depRatio float64) (*state.StateDB, *types.Block) {
	t.Helper()
	g := workload.NewGenerator(seed, 4*n+64)
	genesis := g.Genesis()
	block := g.TokenBlock(n, depRatio)
	if _, err := workload.BuildDAG(genesis, block); err != nil {
		t.Fatal(err)
	}
	return genesis, block
}

// headOf is genesis as the store snapshot one-shot replays and schedule
// checks read.
func headOf(genesis *state.StateDB) *mvstate.Snapshot {
	return mvstate.NewStore(genesis, nil).Head()
}

// TestRegistryEnumerationDeterministic: two enumerations agree, the
// order covers the declared constants at their ordinals, and every
// registered engine round-trips through Parse(e.Name()).
func TestRegistryEnumerationDeterministic(t *testing.T) {
	first, second := engine.Modes(), engine.Modes()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("enumeration not stable: %v vs %v", first, second)
	}
	if len(first) == 0 {
		t.Fatal("empty registry")
	}
	names := engine.Names()
	if len(names) != len(first) {
		t.Fatalf("%d names for %d modes", len(names), len(first))
	}
	for i, m := range first {
		if int(m) != i {
			t.Errorf("mode %v at position %d", m, i)
		}
		if m.String() != names[i] {
			t.Errorf("Modes()[%d].String() = %q, Names()[%d] = %q", i, m.String(), i, names[i])
		}
	}
	// Declared constants sit at their registration ordinals.
	want := []engine.Mode{
		engine.ModeScalar, engine.ModeSequentialILP, engine.ModeSynchronous,
		engine.ModeSpatialTemporal, engine.ModeSTRedundancy, engine.ModeSTHotspot,
		engine.ModeBlockSTM, engine.ModeBSE,
	}
	for i, m := range want {
		if first[i] != m {
			t.Errorf("ordinal %d is %v, want %v", i, first[i], m)
		}
	}
}

func TestParseRoundTripsEveryEngine(t *testing.T) {
	for _, m := range engine.Modes() {
		e, err := engine.Get(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		got, err := engine.Parse(e.Name())
		if err != nil {
			t.Fatalf("Parse(%q): %v", e.Name(), err)
		}
		if got != m {
			t.Errorf("Parse(%q) = %v, want %v", e.Name(), got, m)
		}
	}
}

func TestParseRejectsUnknownWithValidList(t *testing.T) {
	_, err := engine.Parse("warp-drive")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "warp-drive") {
		t.Errorf("error does not echo the bad name: %v", err)
	}
	for _, name := range engine.Names() {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list valid engine %q: %v", name, err)
		}
	}
}

func TestUnknownModeString(t *testing.T) {
	if got := engine.Mode(999).String(); got != "mode(999)" {
		t.Errorf("unknown mode String() = %q, want %q", got, "mode(999)")
	}
	if got := engine.Mode(-1).String(); got != "mode(-1)" {
		t.Errorf("negative mode String() = %q, want %q", got, "mode(-1)")
	}
	if _, err := engine.Get(engine.Mode(999)); err == nil {
		t.Error("Get accepted an unregistered mode")
	}
	for _, m := range engine.Modes() {
		if strings.HasPrefix(m.String(), "mode(") {
			t.Errorf("registered mode %d has fallback name %q", int(m), m)
		}
	}
}

// TestConfigureInvariants pins the per-mode configuration contract:
// single-PU engines force one PU even from a multi-PU base config,
// reuse engines set ReuseContext, the others clear it.
func TestConfigureInvariants(t *testing.T) {
	base := arch.DefaultConfig()
	base.NumPUs = 8 // simulate a ReplayOpts.NumPUs override
	singlePU := map[engine.Mode]bool{engine.ModeScalar: true, engine.ModeSequentialILP: true}
	reuse := map[engine.Mode]bool{engine.ModeSTRedundancy: true, engine.ModeSTHotspot: true}
	for _, m := range engine.Modes() {
		e, err := engine.Get(m)
		if err != nil {
			t.Fatal(err)
		}
		cfg := e.Configure(base)
		if singlePU[m] && cfg.NumPUs != 1 {
			t.Errorf("%v: NumPUs = %d despite single-PU contract", m, cfg.NumPUs)
		}
		if !singlePU[m] && cfg.NumPUs != base.NumPUs {
			t.Errorf("%v: NumPUs = %d, want the base %d", m, cfg.NumPUs, base.NumPUs)
		}
		if cfg.ReuseContext != reuse[m] {
			t.Errorf("%v: ReuseContext = %v, want %v", m, cfg.ReuseContext, reuse[m])
		}
	}
	scalar, _ := engine.Get(engine.ModeScalar)
	if cfg := scalar.Configure(base); cfg.EnableDBCache || cfg.EnableForwarding || cfg.EnableFolding {
		t.Errorf("scalar left ILP features on: %+v", cfg)
	}
}

// TestScalarForcesOnePUUnderOverride: the ReplayOpts.NumPUs override
// must not defeat the single-PU contract end to end — the replay's
// schedule uses exactly one PU.
func TestScalarForcesOnePUUnderOverride(t *testing.T) {
	genesis, block := buildBlock(t, 51, 48, 0.3)
	traces, receipts, digest, err := core.CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	acc := core.New(arch.DefaultConfig())
	for _, m := range []engine.Mode{engine.ModeScalar, engine.ModeSequentialILP} {
		res, err := acc.ReplayWith(block, traces, receipts, digest, m,
			core.ReplayOpts{NumPUs: 4})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got := len(res.Sched.BusyCycles); got != 1 {
			t.Errorf("%v: schedule ran on %d PUs despite NumPUs override", m, got)
		}
		for _, d := range res.Sched.Dispatches {
			if d.PU != 0 {
				t.Fatalf("%v: dispatch on PU %d", m, d.PU)
			}
		}
	}
}

// TestGenesisRequirementErrorsCleanly: Block-STM, which re-executes
// functionally, must reject a replay without ReplayOpts.Head with an
// error naming the field and succeed with it; every engine that replays
// traces must run without it.
func TestGenesisRequirementErrorsCleanly(t *testing.T) {
	genesis, block := buildBlock(t, 53, 32, 0.3)
	traces, receipts, digest, err := core.CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	acc := core.New(arch.DefaultConfig())
	acc.LearnHotspots(traces, 8)
	for _, m := range engine.Modes() {
		res, replayErr := acc.Replay(block, traces, receipts, digest, m)
		if m == engine.ModeBlockSTM {
			if replayErr == nil {
				t.Errorf("%v: ran without the pre-block state it re-executes over", m)
			} else if !strings.Contains(replayErr.Error(), "ReplayOpts.Head") {
				t.Errorf("%v: error does not name ReplayOpts.Head: %v", m, replayErr)
			}
			if _, err := acc.ReplayWith(block, traces, receipts, digest, m,
				core.ReplayOpts{Head: headOf(genesis)}); err != nil {
				t.Errorf("%v: failed with a head: %v", m, err)
			}
			continue
		}
		if replayErr != nil {
			t.Errorf("%v: %v", m, replayErr)
		} else if res.Cycles == 0 {
			t.Errorf("%v: empty result", m)
		}
	}
}

// TestVerifyContractCoversEveryEngine: each engine declares exactly one
// verification path, and the DAG-order ones genuinely pass
// core.VerifyScheduleAt on a contended workload.
func TestVerifyContractCoversEveryEngine(t *testing.T) {
	genesis, block := buildBlock(t, 57, 96, 0.6)
	traces, receipts, digest, err := core.CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	acc := core.New(arch.DefaultConfig())
	acc.LearnHotspots(traces, 8)
	head := headOf(genesis)
	for _, m := range engine.Modes() {
		e, err := engine.Get(m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := acc.ReplayWith(block, traces, receipts, digest, m,
			core.ReplayOpts{Head: head})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		switch e.Verify() {
		case engine.VerifyDAGOrder:
			if err := core.VerifyScheduleAt(head, block, res); err != nil {
				t.Errorf("%v: %v", m, err)
			}
		case engine.VerifyInternalDigest:
			// The engine asserted digest identity inside Run; its runtime
			// conflicts must stay inside the DAG's transitive closure.
			if err := core.VerifySTMConflicts(block.DAG, res.STMConflicts); err != nil {
				t.Errorf("%v: %v", m, err)
			}
		default:
			t.Errorf("%v: unknown verification contract %v", m, e.Verify())
		}
	}
}
