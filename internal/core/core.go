// Package core is the public face of the reproduction: it executes a
// block functionally (the golden sequential EVM run), replays the
// resulting instruction traces through the MTPU timing model under a
// selected execution engine, and verifies that every parallel schedule
// commits a state identical to sequential execution. The engine ladder
// mirrors the paper's evaluation: scalar baseline → ILP (Fig. 12/13,
// Table 7) → synchronous parallel vs spatio-temporal scheduling
// (Fig. 14/15) → + redundancy reuse → + hotspot optimization (Fig. 16),
// plus the optimistic Block-STM and Batch-Schedule-Execute baselines.
// The engines themselves live in internal/engine; ReplayWith is a
// registry lookup plus shared result assembly, with no per-mode
// dispatch of its own.
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mtpu/internal/arch"
	"mtpu/internal/arch/mtpu"
	"mtpu/internal/arch/pipeline"
	"mtpu/internal/arch/pu"
	"mtpu/internal/engine"
	"mtpu/internal/evm"
	"mtpu/internal/hotspot"
	"mtpu/internal/mvstate"
	"mtpu/internal/obs"
	"mtpu/internal/sched"
	"mtpu/internal/state"
	"mtpu/internal/stm"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
)

// Mode selects the execution engine; it is the registry ordinal of
// internal/engine, re-exported so existing call sites keep working.
type Mode = engine.Mode

// The registered execution engines, ordered by capability. See the
// internal/engine constants for per-mode documentation.
const (
	ModeScalar          = engine.ModeScalar
	ModeSequentialILP   = engine.ModeSequentialILP
	ModeSynchronous     = engine.ModeSynchronous
	ModeSpatialTemporal = engine.ModeSpatialTemporal
	ModeSTRedundancy    = engine.ModeSTRedundancy
	ModeSTHotspot       = engine.ModeSTHotspot
	ModeBlockSTM        = engine.ModeBlockSTM
	ModeBSE             = engine.ModeBSE
)

// Result reports one simulated block execution.
type Result struct {
	Mode        Mode
	Receipts    []*types.Receipt
	StateDigest types.Hash
	GasUsed     uint64

	// Cycles is the block makespan in the timing model.
	Cycles uint64
	// Utilization is busy/(PUs × makespan) — Fig. 15.
	Utilization float64
	// Pipeline aggregates the per-PU pipeline counters.
	Pipeline pipeline.Stats
	// Sched carries the dispatch timeline.
	Sched sched.Result
	// Instructions executed (after hotspot skipping).
	Instructions uint64
	// SkippedInstructions removed by hotspot optimization.
	SkippedInstructions int
	// Obs is the instrumentation report, present only when the replay
	// ran with ReplayOpts.Obs set.
	Obs *obs.Report
	// STM carries the optimistic-execution counters; nil for every mode
	// except ModeBlockSTM.
	STM *obs.STMStats
	// STMConflicts are ModeBlockSTM's runtime-detected dependency edges,
	// checkable against the consensus DAG with VerifySTMConflicts.
	STMConflicts []stm.Conflict
}

// IPC is the block-level instructions-per-cycle over pipeline time.
func (r *Result) IPC() float64 { return r.Pipeline.IPC() }

// Accelerator executes blocks under the MTPU model.
//
// Replay and ReplayWith never mutate the Accelerator, so any number of
// replays may run concurrently on one Accelerator — provided Cfg is not
// reassigned and LearnHotspots is not called while they run (learn first,
// then replay, as ExecuteChain's block-interval model does anyway).
type Accelerator struct {
	Cfg   arch.Config
	Table *hotspot.ContractTable
}

// New returns an accelerator with an empty hotspot Contract Table.
func New(cfg arch.Config) *Accelerator {
	return &Accelerator{Cfg: cfg, Table: hotspot.NewContractTable()}
}

// CollectTraces runs the golden sequential execution against a copy of
// genesis, returning per-transaction traces, the receipts and the final
// state digest every other mode must reproduce.
func CollectTraces(genesis *state.StateDB, block *types.Block) ([]*arch.TxTrace, []*types.Receipt, types.Hash, error) {
	return CollectTracesOn(genesis.Copy(), block)
}

// CollectTracesOn is CollectTraces against a caller-owned mutable state:
// the block commits into st, so successive calls over one st replay a
// chained stream sequentially — the oracle for cross-block state
// chaining.
func CollectTracesOn(st *state.StateDB, block *types.Block) ([]*arch.TxTrace, []*types.Receipt, types.Hash, error) {
	e := evm.New(evm.NewBlockContext(block.Header), st)
	col := arch.NewCollector()
	e.Tracer = wrapCollector(col)

	traces := make([]*arch.TxTrace, len(block.Transactions))
	receipts := make([]*types.Receipt, len(block.Transactions))
	for i, tx := range block.Transactions {
		col.Begin(tx)
		r, err := evm.ApplyTransaction(e, tx, i)
		if err != nil {
			return nil, nil, types.Hash{}, fmt.Errorf("core: tx %d: %w", i, err)
		}
		receipts[i] = r
		traces[i] = col.Finish(r.GasUsed)
	}
	return traces, receipts, st.Digest(), nil
}

// ExecuteChain processes consecutive blocks of a chain under the given
// mode over one mvstate store seeded with a copy of genesis: each block
// is decoded at the store's head (PrepareBlock), its digest priced there,
// replayed with that head as the pre-block state, then folded in. After
// each block the accelerator learns hotspots from its traces — the
// offline optimization the MTPU performs in the idle block interval
// (§2.2.4) — so later blocks run with a warm Contract Table. Each block's
// DAG is rebuilt from the decode's access sets. The returned results are
// per block.
func (a *Accelerator) ExecuteChain(genesis *state.StateDB, blocks []*types.Block, mode Mode, hotspotTopN int) ([]*Result, error) {
	store := mvstate.NewStore(genesis, nil)
	results := make([]*Result, len(blocks))
	for i, block := range blocks {
		head := store.Head()
		prep, err := PrepareBlock(head, block)
		if err != nil {
			return nil, fmt.Errorf("core: block %d: %w", i, err)
		}
		digest := prep.DigestAt(head, block.Header.Coinbase)
		res, err := a.ReplayWith(block, prep.Traces, prep.Receipts, digest, mode, ReplayOpts{Head: head})
		if err != nil {
			return nil, fmt.Errorf("core: block %d: %w", i, err)
		}
		results[i] = res
		// Block interval: profile this block's hotspots for the next one.
		a.LearnHotspots(prep.Traces, hotspotTopN)
		store.Commit(prep.WriteKeys, prep.WriteVals, block.Header.Coinbase, &prep.Fees)
	}
	return results, nil
}

// TPS converts a block's cycle count to transactions per second at the
// given core clock (the paper's prototype runs at 300 MHz).
func TPS(txCount int, cycles uint64, clockHz float64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(txCount) * clockHz / float64(cycles)
}

// PrototypeClockHz is the synthesized MTPU's clock (§4.1).
const PrototypeClockHz = 300e6

// LearnHotspots profiles the traces of the topN most-invoked contracts
// into the Contract Table — the offline optimization the MTPU performs in
// the block-generation interval (§3.4). It returns the hotspot addresses.
func (a *Accelerator) LearnHotspots(traces []*arch.TxTrace, topN int) []types.Address {
	counts := make(map[types.Address]int)
	for _, t := range traces {
		if t.HasSelector {
			counts[t.Contract]++
		}
	}
	hot := topAddresses(counts, topN)
	hotSet := make(map[types.Address]bool, len(hot))
	for _, h := range hot {
		hotSet[h] = true
	}
	for _, t := range traces {
		if t.HasSelector && hotSet[t.Contract] {
			a.Table.Learn(t)
		}
	}
	return hot
}

func topAddresses(counts map[types.Address]int, n int) []types.Address {
	type entry struct {
		addr  types.Address
		count int
	}
	entries := make([]entry, 0, len(counts))
	for a, c := range counts {
		entries = append(entries, entry{a, c})
	}
	// Count desc, address asc — a total order, so the result is
	// deterministic despite the map iteration above.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].count != entries[j].count {
			return entries[i].count > entries[j].count
		}
		return string(entries[i].addr[:]) < string(entries[j].addr[:])
	})
	if n > len(entries) {
		n = len(entries)
	}
	out := make([]types.Address, n)
	for i := 0; i < n; i++ {
		out[i] = entries[i].addr
	}
	return out
}

// Execute runs the block under the given mode: functional execution for
// receipts and state, then a timing replay through the scheduled MTPU.
// It is a one-block ExecuteChain.
func (a *Accelerator) Execute(genesis *state.StateDB, block *types.Block, mode Mode) (*Result, error) {
	res, err := a.ExecuteChain(genesis, []*types.Block{block}, mode, 0)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// ReplayOpts adjusts one Replay call without touching the shared
// Accelerator, which keeps concurrent replays on one Accelerator safe.
type ReplayOpts struct {
	// NumPUs overrides Cfg.NumPUs when > 0. Single-PU modes (scalar,
	// sequential+ILP) still run on one PU.
	NumPUs int
	// Plans supplies prebuilt plain plans aligned with the traces (e.g.
	// the experiments' trace-cache entries), so one plan set — and its
	// shared fill memo — serves every mode of a sweep. Ignored by
	// ModeSTHotspot, whose plans depend on the Contract Table. nil has
	// the engine build its own. Shared plans are only read during replay.
	Plans []*pu.Plan
	// Obs enables cycle-level instrumentation: the collector receives
	// pipeline and scheduler events during the replay and the Result
	// carries the assembled obs.Report. Use a fresh collector per call.
	// nil (the default) keeps every hot path on its uninstrumented,
	// zero-allocation route.
	Obs *obs.Collector
	// Genesis is unread. It is kept only because the block-stream
	// benchmark (bench/traced.go, a separate module) still sets it.
	Genesis *state.StateDB
	// Head is the pre-block state as an mvstate store snapshot, required
	// by engines that re-execute transactions functionally instead of
	// replaying traces (ModeBlockSTM): the chained head in server mode
	// (internal/stream), or mvstate.NewStore(genesis, nil).Head() built
	// once and shared by one-shot replays. It is only read, never
	// mutated, so one head serves concurrent replays.
	Head *mvstate.Snapshot
	// Tel enables host-side telemetry: the replay's wall-clock latency,
	// simulated volume, cache warm/cold splits, scheduler pick rates and
	// STM incarnation/abort rates stream into the shared registry. The
	// registry is concurrency-safe, so — unlike Obs — one instance serves
	// every replay of a sweep. nil (the default) costs the hot path one
	// branch per replay and zero allocations.
	Tel *telemetry.Metrics
}

// Replay runs only the timing model over pre-collected traces (callers
// sweeping many modes over one block avoid re-executing functionally).
func (a *Accelerator) Replay(block *types.Block, traces []*arch.TxTrace, receipts []*types.Receipt, digest types.Hash, mode Mode) (*Result, error) {
	return a.ReplayWith(block, traces, receipts, digest, mode, ReplayOpts{})
}

// procPool recycles Processors between ReplayWith calls so sweeps that
// replay many (block, mode) points reuse warm PU pipelines and State
// Buffer arenas instead of re-growing them from zero per point.
// Processor.Reset guarantees a recycled processor replays
// byte-identically to a fresh one; a pooled processor whose config does
// not match is dropped.
var procPool sync.Pool

func getProcessor(cfg arch.Config) *mtpu.Processor {
	if v := procPool.Get(); v != nil {
		p := v.(*mtpu.Processor)
		if p.Cfg == cfg {
			p.Reset()
			return p
		}
	}
	return mtpu.New(cfg)
}

// ReplayWith is Replay with per-call overrides. It contains no per-mode
// dispatch: the engine registry supplies the mode's configuration, plan
// construction and scheduling; this function only assembles the shared
// Result and instrumentation report around whatever the engine ran.
func (a *Accelerator) ReplayWith(block *types.Block, traces []*arch.TxTrace, receipts []*types.Receipt, digest types.Hash, mode Mode, opts ReplayOpts) (*Result, error) {
	eng, err := engine.Get(mode)
	if err != nil {
		return nil, err
	}
	cfg := a.Cfg
	if opts.NumPUs > 0 {
		cfg.NumPUs = opts.NumPUs
	}
	cfg = eng.Configure(cfg)
	proc := getProcessor(cfg)

	// The typed-nil guards matter: assigning a nil *Collector (or a nil
	// *Metrics' sink) into the interface directly would defeat the
	// sink != nil fast path. Tee is the one attachment point where the
	// cycle-obs collector and the host-telemetry bridge meet; with both
	// absent the sink stays nil and every hot path keeps its
	// uninstrumented route.
	var sink obs.Sink
	if opts.Obs != nil {
		sink = opts.Obs
	}
	if opts.Tel != nil {
		sink = obs.Tee(sink, opts.Tel.Sink())
	}
	if sink != nil {
		proc.SetSink(sink)
	}

	if opts.Plans != nil && len(opts.Plans) != len(traces) {
		return nil, fmt.Errorf("core: %d prebuilt plans for %d traces", len(opts.Plans), len(traces))
	}
	plans, skipped := eng.Plans(a.Table, traces, opts.Plans)

	env := &engine.Env{
		Cfg:      cfg,
		Proc:     proc,
		Plans:    plans,
		Sink:     sink,
		Head:     opts.Head,
		Receipts: receipts,
		Digest:   digest,
		Tel:      opts.Tel,
	}
	var replayStart time.Time
	if opts.Tel != nil {
		replayStart = time.Now()
	}
	er, err := eng.Run(block, traces, env)
	if err != nil {
		return nil, err
	}
	sres := er.Sched

	var gasUsed uint64
	for _, r := range receipts {
		gasUsed += r.GasUsed
	}
	ps := proc.PipelineStats()
	res := &Result{
		Mode:                mode,
		Receipts:            receipts,
		StateDigest:         digest,
		GasUsed:             gasUsed,
		Cycles:              sres.Makespan,
		Utilization:         sres.Utilization(),
		Pipeline:            ps,
		Sched:               sres,
		Instructions:        ps.Instructions,
		SkippedInstructions: skipped,
	}
	if er.STM != nil {
		res.STM = &er.STM.Stats
		res.STMConflicts = er.STM.Conflicts
	}
	if opts.Tel != nil {
		opts.Tel.ObserveReplay(mode.String(), len(traces), ps.Instructions, sres.Makespan, time.Since(replayStart))
		// Reset zeroes the State Buffer counters, so the post-run values
		// are exactly this replay's warm/cold split.
		opts.Tel.SBufHits.Add(proc.SBuf.Hits)
		opts.Tel.SBufMisses.Add(proc.SBuf.Misses)
		opts.Tel.SchedRefillScans.Add(sres.RefillScans)
	}
	if opts.Obs != nil {
		res.Obs = buildObsReport(cfg, mode.String(), er.SchedWindow, proc, &sres, block, opts.Obs)
		res.Obs.STM = res.STM
	}
	if sink == nil {
		// Instrumented processors are not recycled: the report path walks
		// the processor after the replay, and keeping only sink-free
		// processors in the pool keeps the uninstrumented fast path honest.
		procPool.Put(proc)
	}
	return res, nil
}

// VerifyScheduleAt re-executes the block's transactions in the dispatch
// order of a schedule against a buffered view of head, a store snapshot
// of the pre-block state (only read, never copied), and checks the final
// state digest matches sequential execution — the serializability
// invariant of §3.2 ("scheduling does not violate blockchain
// consistency"). It does not apply to ModeBlockSTM, whose schedule
// deliberately overlaps conflicting transactions and re-dispatches
// aborted ones; that mode asserts digest identity internally and is
// cross-checked with VerifySTMConflicts instead.
func VerifyScheduleAt(head *mvstate.Snapshot, block *types.Block, res *Result) error {
	order := make([]sched.Dispatch, len(res.Sched.Dispatches))
	copy(order, res.Sched.Dispatches)
	// Commit order: by start time, PU index breaking ties, transaction
	// index last — a total order, so the sort is deterministic (a PU runs
	// one transaction at a time, so (Start, PU) never actually repeats).
	sort.Slice(order, func(i, j int) bool {
		if order[i].Start != order[j].Start {
			return order[i].Start < order[j].Start
		}
		if order[i].PU != order[j].PU {
			return order[i].PU < order[j].PU
		}
		return order[i].Tx < order[j].Tx
	})
	// Structural check: no transaction may start before every DAG
	// predecessor has finished, independent of whether the particular
	// operations happen to commute.
	endOf := make(map[int]uint64, len(order))
	for _, d := range order {
		endOf[d.Tx] = d.End
	}
	for _, d := range order {
		for _, dep := range block.DAG.Deps[d.Tx] {
			end, ok := endOf[dep]
			if !ok {
				return fmt.Errorf("core: tx %d scheduled but its dependency %d was not", d.Tx, dep)
			}
			if d.Start < end {
				return fmt.Errorf("core: tx %d started at %d before dependency %d ended at %d",
					d.Tx, d.Start, dep, end)
			}
		}
	}

	if len(res.Receipts) != len(block.Transactions) {
		return fmt.Errorf("core: %d receipts for %d transactions", len(res.Receipts), len(block.Transactions))
	}
	ov := mvstate.NewOverlay(head, block.Header.Coinbase)
	e := evm.New(evm.NewBlockContext(block.Header), ov)
	seen := make([]bool, len(block.Transactions))
	for _, d := range order {
		if seen[d.Tx] {
			return fmt.Errorf("core: tx %d dispatched twice", d.Tx)
		}
		seen[d.Tx] = true
		r, err := evm.ApplyTransaction(e, block.Transactions[d.Tx], d.Tx)
		if err != nil {
			return fmt.Errorf("core: replay order broke tx %d: %w", d.Tx, err)
		}
		// Receipt identity: the scheduled order must reproduce the
		// sequential outcome per transaction, not just the final digest.
		want := res.Receipts[d.Tx]
		if want.TxIndex != d.Tx {
			return fmt.Errorf("core: receipt %d carries tx index %d", d.Tx, want.TxIndex)
		}
		if r.Status != want.Status || r.GasUsed != want.GasUsed {
			return fmt.Errorf("core: tx %d replayed to status %d / gas %d, sequential receipt says %d / %d",
				d.Tx, r.Status, r.GasUsed, want.Status, want.GasUsed)
		}
	}
	for tx, ok := range seen {
		if !ok {
			return fmt.Errorf("core: tx %d never dispatched", tx)
		}
	}
	keys, vals := ov.WriteSet()
	fee := ov.FeeDelta()
	if got := head.DigestAfter(keys, vals, block.Header.Coinbase, &fee); got != res.StateDigest {
		return fmt.Errorf("core: scheduled state digest %s != sequential %s", got, res.StateDigest)
	}
	return nil
}

// VerifySTMConflicts checks that every conflict the optimistic executor
// detected at run time lies within the transitive closure of the
// consensus DAG: Block-STM may discover dependencies indirectly (through
// intermediate writers), but it must never manufacture a conflict between
// transactions the DAG proves independent.
func VerifySTMConflicts(dag *types.DAG, conflicts []stm.Conflict) error {
	for _, c := range conflicts {
		if !dag.HasPath(c.From, c.To) {
			return fmt.Errorf("core: stm conflict %d→%d outside the consensus DAG's transitive closure", c.From, c.To)
		}
	}
	return nil
}

// VerifyResultAt applies the serializability check a result's engine
// declares, against an mvstate snapshot of the pre-block state (see
// VerifyScheduleAt): DAG-order engines get the full VerifyScheduleAt
// replay, internal-digest engines get the conflict cross-check. This is
// the one verification entry point the CLIs and the differential harness
// share, so every engine is held to its declared bar the same way
// everywhere.
func VerifyResultAt(head *mvstate.Snapshot, block *types.Block, res *Result) error {
	eng, err := engine.Get(res.Mode)
	if err != nil {
		return err
	}
	switch v := eng.Verify(); v {
	case engine.VerifyDAGOrder:
		if err := VerifyScheduleAt(head, block, res); err != nil {
			return fmt.Errorf("core: %s schedule: %w", res.Mode, err)
		}
	case engine.VerifyInternalDigest:
		if err := VerifySTMConflicts(block.DAG, res.STMConflicts); err != nil {
			return fmt.Errorf("core: %s conflicts: %w", res.Mode, err)
		}
	default:
		return fmt.Errorf("core: %s declares unknown verification %s", res.Mode, v)
	}
	return nil
}
