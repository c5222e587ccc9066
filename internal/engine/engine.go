// Package engine is the pluggable execution-engine layer: every way of
// running a block through the MTPU timing model — the paper's mode
// ladder (scalar → ILP → synchronous → spatio-temporal ± redundancy /
// hotspot), the optimistic Block-STM baseline, and any future strategy —
// is one Engine implementation behind one registry. core.ReplayWith
// looks the engine up by Mode and delegates; cmd/mtpu-run, cmd/mtpu-bench
// and internal/experiments enumerate the registry instead of hardcoding
// mode lists. Adding an execution strategy is a change to this package
// alone: implement Engine, call Register, done.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"mtpu/internal/arch"
	"mtpu/internal/arch/mtpu"
	"mtpu/internal/arch/pu"
	"mtpu/internal/hotspot"
	"mtpu/internal/mvstate"
	"mtpu/internal/obs"
	"mtpu/internal/sched"
	"mtpu/internal/stm"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
)

// Mode identifies a registered engine by its registration ordinal. The
// zero value is the scalar baseline; ordinals are stable across runs
// because registration order is fixed at init time.
type Mode int

// The built-in engines, in registration (capability-ladder) order. The
// constants exist so call sites can name a mode without a registry
// lookup; init() asserts each engine registers at its declared ordinal.
const (
	// ModeScalar is a single PU with no parallel features — the §4.2
	// baseline ("single PU without any parallelism") and the Table 8/9
	// reference point (≈ BPU's GSC engine).
	ModeScalar Mode = iota
	// ModeSequentialILP is a single ILP-enabled PU, caches flushed
	// between transactions — the Fig. 14 speedup-1.0 baseline.
	ModeSequentialILP
	// ModeSynchronous is barrier-round parallelism across NumPUs.
	ModeSynchronous
	// ModeSpatialTemporal is the §3.2 asynchronous scheduler without
	// cross-transaction reuse.
	ModeSpatialTemporal
	// ModeSTRedundancy adds the §3.3.5 redundancy optimization: DB cache
	// and contract contexts persist per PU, and the shared State Buffer
	// serves recently touched state.
	ModeSTRedundancy
	// ModeSTHotspot adds the §3.4 hotspot contract optimization.
	ModeSTHotspot
	// ModeBlockSTM is the optimistic software baseline: Block-STM-style
	// multi-version execution with run-time validation, abort and
	// re-execution. It uses no consensus DAG — conflicts are discovered
	// the hard way, and every aborted incarnation's PU cycles are charged
	// as wasted work. Replays in this mode require the pre-block state as
	// a store snapshot in ReplayOpts.Head (the functional re-execution
	// reads it).
	ModeBlockSTM
	// ModeBSE is Batch-Schedule-Execute (Hay & Friedman, 2024): the
	// consensus DAG is greedily partitioned into conflict-free batches
	// ahead of execution, and each batch runs barrier-synchronized
	// across the PUs — a deterministic pre-scheduled baseline between
	// ModeSynchronous (dynamic barrier rounds) and ModeSpatialTemporal
	// (asynchronous selection).
	ModeBSE
)

// String returns the engine's registered name, or "mode(N)" for a Mode
// that names no registered engine.
func (m Mode) String() string {
	if int(m) >= 0 && int(m) < len(registry) {
		return registry[m].Name()
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Verification declares how a mode's result is held to the
// serializability bar.
type Verification int

const (
	// VerifyDAGOrder: the schedule is checked externally by
	// core.VerifyScheduleAt — replaying the dispatch order against the
	// pre-block state must reproduce the sequential state digest, and no
	// transaction may start before its DAG predecessors end.
	VerifyDAGOrder Verification = iota
	// VerifyInternalDigest: the engine asserts digest/receipt identity
	// with sequential execution inside Run (its schedule deliberately
	// overlaps conflicting transactions, so DAG-order replay does not
	// apply). Such engines are cross-checked by result-specific
	// invariants instead (e.g. core.VerifySTMConflicts).
	VerifyInternalDigest
)

// String names the verification strategy (diagnostics and diff-failure
// reports).
func (v Verification) String() string {
	switch v {
	case VerifyDAGOrder:
		return "dag-order"
	case VerifyInternalDigest:
		return "internal-digest"
	}
	return fmt.Sprintf("verification(%d)", int(v))
}

// Env carries the shared machinery one Run call works with. It is built
// fresh per replay by core.ReplayWith; engines must not retain it.
type Env struct {
	// Cfg is the post-Configure architectural configuration.
	Cfg arch.Config
	// Proc is the MTPU processor the replay charges cycles on.
	Proc *mtpu.Processor
	// Plans are the per-transaction execution plans (from Engine.Plans),
	// aligned with the traces.
	Plans []*pu.Plan
	// Sink receives scheduler events when instrumentation is on; nil
	// keeps every hot path on its uninstrumented route.
	Sink obs.Sink
	// Tel is the host-telemetry registry; nil keeps telemetry off.
	// Engines that run sub-executors with their own live counters (e.g.
	// Block-STM) forward it; everything latency/throughput-shaped is
	// recorded by core around the Run call.
	Tel *telemetry.Metrics
	// Head is the pre-block state as an mvstate snapshot, nil unless
	// the caller supplied one: the chained head (post block N-1) in
	// server mode, a never-committed store's head in one-shot replays.
	// Engines that re-execute transactions functionally (Block-STM) read
	// through it and must error cleanly when it is absent.
	Head *mvstate.Snapshot
	// Receipts and Digest are the golden sequential results every
	// engine must reproduce.
	Receipts []*types.Receipt
	Digest   types.Hash
}

// Dispatch replays tx's plan on PU p and returns the cycle cost — the
// sched.Engine / stm.Engine contract, so one Env drives every scheduler.
func (e *Env) Dispatch(p, tx int) uint64 {
	return e.Proc.PUs[p].Run(e.Plans[tx], e.Proc.Mem()).Total
}

// Result is what one engine Run produces; core assembles the public
// core.Result from it plus the shared pipeline/obs state.
type Result struct {
	// Sched is the dispatch timeline and makespan.
	Sched sched.Result
	// STM carries the full optimistic-execution result for engines that
	// run one; nil otherwise.
	STM *stm.Result
	// SchedWindow is the candidate-window size the engine consulted
	// (obs reporting); 0 for engines that never touch the window.
	SchedWindow int
}

// Engine is one block-execution strategy. Implementations must be
// stateless values: Configure/Plans/Run may run concurrently from many
// replays, so all per-run state lives in Env and locals.
type Engine interface {
	// Name is the stable registry key and evaluation label.
	Name() string
	// Configure derives the architectural flags the mode requires from
	// the caller's base configuration (e.g. single-PU modes force
	// NumPUs=1, reuse modes set ReuseContext).
	Configure(cfg arch.Config) arch.Config
	// Plans builds the per-transaction execution plans: prebuilt plans
	// (when non-nil and applicable) or plain plans from the traces, or —
	// for the hotspot engine — optimized plans from the Contract Table.
	// skipped is the number of instructions removed by optimization.
	Plans(table *hotspot.ContractTable, traces []*arch.TxTrace, prebuilt []*pu.Plan) (plans []*pu.Plan, skipped int)
	// Run executes the block's timing replay and returns the schedule.
	Run(block *types.Block, traces []*arch.TxTrace, env *Env) (Result, error)
	// Verify declares how the result is checked for serializability.
	Verify() Verification
}

var (
	registry []Engine
	byName   = map[string]Mode{}
)

// Register adds an engine to the registry and returns its Mode. Names
// must be unique and non-empty; registration order defines enumeration
// order, so register from a single init path only.
func Register(e Engine) Mode {
	name := e.Name()
	if name == "" {
		panic("engine: Register with empty name")
	}
	if _, dup := byName[name]; dup {
		panic(fmt.Sprintf("engine: duplicate registration of %q", name))
	}
	m := Mode(len(registry))
	registry = append(registry, e)
	byName[name] = m
	return m
}

// Get returns the engine registered for m.
func Get(m Mode) (Engine, error) {
	if int(m) < 0 || int(m) >= len(registry) {
		return nil, fmt.Errorf("engine: unknown mode %s (registered: %s)", m, strings.Join(Names(), ", "))
	}
	return registry[m], nil
}

// Modes enumerates every registered mode in registration order.
func Modes() []Mode {
	out := make([]Mode, len(registry))
	for i := range registry {
		out[i] = Mode(i)
	}
	return out
}

// Engines enumerates every registered engine in registration order.
func Engines() []Engine {
	out := make([]Engine, len(registry))
	copy(out, registry)
	return out
}

// Names lists the registered engine names in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name()
	}
	return out
}

// Parse resolves an engine name to its Mode. Unknown names are rejected
// with the sorted list of valid ones, so -mode flag errors are
// self-documenting.
func Parse(name string) (Mode, error) {
	if m, ok := byName[name]; ok {
		return m, nil
	}
	valid := Names()
	sort.Strings(valid)
	return 0, fmt.Errorf("engine: unknown mode %q (valid: %s)", name, strings.Join(valid, ", "))
}
