// The built-in engines: the paper's mode ladder plus the optimistic
// Block-STM baseline, extracted verbatim from the per-mode arms that
// used to live in core.ReplayWith. Timing, dispatch order and config
// derivation are byte-identical to the pre-registry dispatch.
package engine

import (
	"fmt"

	"mtpu/internal/arch"
	"mtpu/internal/arch/pu"
	"mtpu/internal/hotspot"
	"mtpu/internal/sched"
	"mtpu/internal/stm"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

func init() {
	// Registration order IS the Mode ordinal; the asserts pin each
	// engine to its declared constant so the two can never drift.
	for _, r := range []struct {
		want Mode
		e    Engine
	}{
		{ModeScalar, scalarEngine{}},
		{ModeSequentialILP, ilpEngine{}},
		{ModeSynchronous, synchronousEngine{}},
		{ModeSpatialTemporal, stEngine{name: "spatial-temporal", reuse: false}},
		{ModeSTRedundancy, stEngine{name: "spatial-temporal+redundancy", reuse: true}},
		{ModeSTHotspot, hotspotEngine{}},
		{ModeBlockSTM, blockSTMEngine{}},
		{ModeBSE, bseEngine{}},
	} {
		if got := Register(r.e); got != r.want {
			panic(fmt.Sprintf("engine: %q registered as %d, want %d", r.e.Name(), got, r.want))
		}
	}
}

// plainPlans is the shared Plans implementation of every engine whose
// plans do not depend on the Contract Table: prebuilt plans when the
// caller supplied them, plain per-trace plans otherwise.
func plainPlans(traces []*arch.TxTrace, prebuilt []*pu.Plan) ([]*pu.Plan, int) {
	if prebuilt != nil {
		return prebuilt, 0
	}
	return pu.PlainPlans(traces), 0
}

// scalarEngine: one PU, no parallel features of any kind.
type scalarEngine struct{}

func (scalarEngine) Name() string { return "scalar" }

func (scalarEngine) Configure(cfg arch.Config) arch.Config {
	cfg.EnableDBCache = false
	cfg.EnableForwarding = false
	cfg.EnableFolding = false
	cfg.ReuseContext = false
	cfg.NumPUs = 1
	return cfg
}

func (scalarEngine) Plans(_ *hotspot.ContractTable, traces []*arch.TxTrace, prebuilt []*pu.Plan) ([]*pu.Plan, int) {
	return plainPlans(traces, prebuilt)
}

func (scalarEngine) Run(_ *types.Block, traces []*arch.TxTrace, env *Env) (Result, error) {
	return Result{Sched: sched.Sequential(len(traces), env)}, nil
}

func (scalarEngine) Verify() Verification { return VerifyDAGOrder }

// ilpEngine: one ILP-enabled PU, caches flushed between transactions.
type ilpEngine struct{}

func (ilpEngine) Name() string { return "sequential+ILP" }

func (ilpEngine) Configure(cfg arch.Config) arch.Config {
	cfg.ReuseContext = false
	cfg.NumPUs = 1
	return cfg
}

func (ilpEngine) Plans(_ *hotspot.ContractTable, traces []*arch.TxTrace, prebuilt []*pu.Plan) ([]*pu.Plan, int) {
	return plainPlans(traces, prebuilt)
}

func (ilpEngine) Run(_ *types.Block, traces []*arch.TxTrace, env *Env) (Result, error) {
	return Result{Sched: sched.Sequential(len(traces), env)}, nil
}

func (ilpEngine) Verify() Verification { return VerifyDAGOrder }

// synchronousEngine: barrier-round parallelism across NumPUs.
type synchronousEngine struct{}

func (synchronousEngine) Name() string { return "synchronous" }

func (synchronousEngine) Configure(cfg arch.Config) arch.Config {
	cfg.ReuseContext = false
	return cfg
}

func (synchronousEngine) Plans(_ *hotspot.ContractTable, traces []*arch.TxTrace, prebuilt []*pu.Plan) ([]*pu.Plan, int) {
	return plainPlans(traces, prebuilt)
}

func (synchronousEngine) Run(block *types.Block, _ []*arch.TxTrace, env *Env) (Result, error) {
	return Result{Sched: sched.Synchronous(block.DAG, env.Cfg.NumPUs, env.Cfg.ScheduleOverhead, env)}, nil
}

func (synchronousEngine) Verify() Verification { return VerifyDAGOrder }

// stEngine: the §3.2 spatio-temporal scheduler, with or without the
// §3.3.5 redundancy (reuse) optimization.
type stEngine struct {
	name  string
	reuse bool
}

func (e stEngine) Name() string { return e.name }

func (e stEngine) Configure(cfg arch.Config) arch.Config {
	cfg.ReuseContext = e.reuse
	return cfg
}

func (stEngine) Plans(_ *hotspot.ContractTable, traces []*arch.TxTrace, prebuilt []*pu.Plan) ([]*pu.Plan, int) {
	return plainPlans(traces, prebuilt)
}

func (stEngine) Run(block *types.Block, _ []*arch.TxTrace, env *Env) (Result, error) {
	contracts := workload.ContractOf(block)
	return Result{
		Sched: sched.SpatialTemporalObs(block.DAG, contracts, env.Cfg.NumPUs,
			env.Cfg.CandidateWindow, env.Cfg.ScheduleOverhead, env, env.Sink),
		SchedWindow: env.Cfg.CandidateWindow,
	}, nil
}

func (stEngine) Verify() Verification { return VerifyDAGOrder }

// hotspotEngine: spatio-temporal + redundancy + the §3.4 hotspot
// optimization. Its plans come from the Contract Table, so prebuilt
// plain plans are deliberately ignored.
type hotspotEngine struct{}

func (hotspotEngine) Name() string { return "spatial-temporal+redundancy+hotspot" }

func (hotspotEngine) Configure(cfg arch.Config) arch.Config {
	cfg.ReuseContext = true
	return cfg
}

func (hotspotEngine) Plans(table *hotspot.ContractTable, traces []*arch.TxTrace, _ []*pu.Plan) ([]*pu.Plan, int) {
	plans := make([]*pu.Plan, len(traces))
	skipped := 0
	for i, t := range traces {
		plans[i] = table.Plan(t)
		skipped += plans[i].SkippedInstructions
	}
	return plans, skipped
}

func (hotspotEngine) Run(block *types.Block, _ []*arch.TxTrace, env *Env) (Result, error) {
	contracts := workload.ContractOf(block)
	return Result{
		Sched: sched.SpatialTemporalObs(block.DAG, contracts, env.Cfg.NumPUs,
			env.Cfg.CandidateWindow, env.Cfg.ScheduleOverhead, env, env.Sink),
		SchedWindow: env.Cfg.CandidateWindow,
	}, nil
}

func (hotspotEngine) Verify() Verification { return VerifyDAGOrder }

// blockSTMEngine: the optimistic software baseline — multi-version
// execution with run-time validation, abort and re-execution.
type blockSTMEngine struct{}

func (blockSTMEngine) Name() string { return "block-stm" }

func (blockSTMEngine) Configure(cfg arch.Config) arch.Config {
	cfg.ReuseContext = false
	return cfg
}

func (blockSTMEngine) Plans(_ *hotspot.ContractTable, traces []*arch.TxTrace, prebuilt []*pu.Plan) ([]*pu.Plan, int) {
	return plainPlans(traces, prebuilt)
}

func (e blockSTMEngine) Run(block *types.Block, _ []*arch.TxTrace, env *Env) (Result, error) {
	if env.Head == nil {
		return Result{}, fmt.Errorf("engine: mode %s re-executes functionally and requires the pre-block state in ReplayOpts.Head", e.Name())
	}
	stmRes, err := stm.Execute(block, env.Head, stm.Config{
		NumPUs:           env.Cfg.NumPUs,
		ScheduleOverhead: env.Cfg.ScheduleOverhead,
		ValidateBase:     env.Cfg.StmValidateBase,
		ValidatePerKey:   env.Cfg.StmValidatePerKey,
		Tel:              env.Tel,
	}, env)
	if err != nil {
		return Result{}, err
	}
	// The identical-state-to-sequential assertion is built into the
	// mode: an optimistic schedule that commits anything else is a
	// correctness bug, not a measurement.
	if stmRes.Digest != env.Digest {
		return Result{}, fmt.Errorf("engine: block-stm state digest %s != sequential %s", stmRes.Digest, env.Digest)
	}
	for i, r := range stmRes.Receipts {
		if r.GasUsed != env.Receipts[i].GasUsed || r.Status != env.Receipts[i].Status {
			return Result{}, fmt.Errorf("engine: block-stm receipt %d (gas %d, status %d) != sequential (gas %d, status %d)",
				i, r.GasUsed, r.Status, env.Receipts[i].GasUsed, env.Receipts[i].Status)
		}
	}
	sres := sched.Result{Makespan: stmRes.Makespan, BusyCycles: stmRes.BusyCycles}
	for _, d := range stmRes.ExecDispatches() {
		sres.Dispatches = append(sres.Dispatches, sched.Dispatch{Tx: d.Tx, PU: d.PU, Start: d.Start, End: d.End})
	}
	return Result{Sched: sres, STM: stmRes}, nil
}

func (blockSTMEngine) Verify() Verification { return VerifyInternalDigest }
