// Package stm implements an optimistic software execution baseline in
// the style of Block-STM (Gelashvili et al.): transactions run
// speculatively against a multi-version view of the world state,
// conflicts are discovered at run time by validating recorded read sets,
// and aborted transactions re-execute until the block commits a state
// identical to sequential execution. It is the software counterpart to
// the paper's consensus-time dependency DAG — the scheduler here learns
// the same conflicts the hard way, paying wasted incarnations and
// validation cycles instead of a pre-computed graph.
//
// The multi-version memory and the per-incarnation view live in
// internal/mvstate (shared with the cross-block store); this package
// owns only the collaborative scheduler driving them. The executor is
// a deterministic discrete-event simulation on a single goroutine,
// like the sched package: PU timing comes from the same cycle model,
// so Block-STM lands on the same axes as the paper's Figs. 14-16.
package stm

import (
	"fmt"
	"sort"

	"mtpu/internal/evm"
	"mtpu/internal/mvstate"
	"mtpu/internal/obs"
	"mtpu/internal/state"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// Engine is the PU timing model: Dispatch replays tx's instruction trace
// on pu and returns the cycle cost. It matches sched.Engine, so core
// drives both schedulers through one adapter — every incarnation pays a
// full replay, which is exactly how wasted speculative work shows up in
// the cycle accounting.
type Engine interface {
	Dispatch(pu, tx int) uint64
}

// Config parameterizes one optimistic block execution.
type Config struct {
	// NumPUs is the number of processing units running tasks.
	NumPUs int
	// ScheduleOverhead is the per-task dispatch cost in cycles (the same
	// charge the DAG-driven schedulers pay per selection).
	ScheduleOverhead uint64
	// ValidateBase + ValidatePerKey×|read set| is the cost of one
	// validation task (arch.Config.StmValidateBase/PerKey).
	ValidateBase   uint64
	ValidatePerKey uint64
	// Tel, when non-nil, receives incarnation/abort/validation events
	// live as the executor applies them — the host-side view of the
	// optimistic run (Result.Stats stays the authoritative per-block
	// record either way).
	Tel *telemetry.Metrics
}

// Conflict is one runtime-detected dependency: transaction To aborted or
// failed validation because of transaction From's writes (From < To).
// Every conflict must lie inside the transitive closure of the consensus
// DAG — the check behind mtpu-run -verify-dag.
type Conflict struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Dispatch is one task interval on one PU (execution incarnation or
// validation), the STM counterpart of sched.Dispatch.
type Dispatch struct {
	Tx          int
	Incarnation int
	PU          int
	Start, End  uint64
	Validation  bool
}

// Result is the outcome of one optimistic block execution.
type Result struct {
	// Receipts of the committed incarnations, in transaction order.
	Receipts []*types.Receipt
	// Digest of the committed final state; the caller asserts it equals
	// the sequential digest.
	Digest types.Hash
	// Makespan is the simulated completion time of the whole block.
	Makespan uint64
	// BusyCycles per PU: execution + validation + dispatch overhead.
	BusyCycles []uint64
	// Dispatches is the full task timeline (aborted incarnations and
	// validations included).
	Dispatches []Dispatch
	// Conflicts are the deduplicated runtime-detected dependency edges,
	// sorted by (From, To).
	Conflicts []Conflict
	// Stats are the optimistic-execution counters.
	Stats obs.STMStats
}

// ExecDispatches returns only the execution-incarnation intervals (the
// shape sched.Result.Dispatches has, for timeline consumers).
func (r *Result) ExecDispatches() []Dispatch {
	out := make([]Dispatch, 0, len(r.Dispatches))
	for _, d := range r.Dispatches {
		if !d.Validation {
			out = append(out, d)
		}
	}
	return out
}

// txStatus is the per-transaction scheduler state.
type txStatus uint8

const (
	statusReady txStatus = iota
	statusExecuting
	statusExecuted
	statusBlocked
)

// txState is the scheduler's bookkeeping for one transaction.
type txState struct {
	status txStatus
	// incarnation numbers the next (or currently running) attempt;
	// execInc is the attempt whose results are currently published.
	incarnation  int
	execInc      int
	lastExecCost uint64

	reads     []mvstate.ReadObs
	writeKeys []state.AccessKey
	writeVals []mvstate.Value
	feeDelta  uint256.Int
	receipt   *types.Receipt
	// execErr holds a protocol error (nonce mismatch, insufficient funds)
	// from the last incarnation; validation decides whether it was caused
	// by stale reads or is genuine.
	execErr error

	blockedOn    int
	blockedSince uint64
	dependents   []int
}

// outcomeKind classifies what a task determined at its start time; the
// effect is applied when the task's cycles complete.
type outcomeKind uint8

const (
	outExecOK outcomeKind = iota
	outExecEstimate
	outExecFailed
	outValPass
	outValFail
)

// pendingOutcome carries a task's functional result from start to
// completion time.
type pendingOutcome struct {
	kind         outcomeKind
	dep          int // outExecEstimate: the aborted writer blocking us
	err          error
	reads        []mvstate.ReadObs
	writeKeys    []state.AccessKey
	writeVals    []mvstate.Value
	feeDelta     uint256.Int
	receipt      *types.Receipt
	conflictFrom int // outValFail: the writer whose publish invalidated us
}

// puTask is the task occupying one PU.
type puTask struct {
	active     bool
	validation bool
	tx         int
	inc        int
	start, end uint64
	outcome    pendingOutcome
}

// executor runs the collaborative scheduler: a single-goroutine
// discrete-event loop (the sched package's style) over NumPUs workers
// pulling execution and validation tasks. Determinism: PUs are assigned
// and completed in PU order, functional execution happens at a task's
// start time against the memory state of that instant, and effects are
// published at its completion time.
type executor struct {
	cfg   Config
	eng   Engine
	block *types.Block
	base  *mvstate.Snapshot
	mv    *mvstate.MVMemory

	txs   []txState
	tasks []puTask

	// execIdx / valIdx are the collaborative scheduler's two counters:
	// the next transaction to (re-)execute and to (re-)validate. Aborts
	// and publishes pull them back.
	execIdx, valIdx int

	conflicts    []Conflict
	conflictSeen map[Conflict]bool

	res *Result
}

// Execute runs the block optimistically against the (read-only) base
// snapshot: the head of a store, which is a frozen genesis in one-shot
// replays and the chained head in server mode. The base is never
// mutated: the final write-set is priced over the base
// (Snapshot.DigestAfter), and its digest returned for the
// identical-to-sequential check.
func Execute(block *types.Block, base *mvstate.Snapshot, cfg Config, eng Engine) (*Result, error) {
	if cfg.NumPUs < 1 {
		return nil, fmt.Errorf("stm: NumPUs must be >= 1, got %d", cfg.NumPUs)
	}
	n := len(block.Transactions)
	res := &Result{BusyCycles: make([]uint64, cfg.NumPUs)}
	res.Stats.Txs = n
	if n == 0 {
		res.Digest = base.Digest()
		return res, nil
	}

	ex := &executor{
		cfg:          cfg,
		eng:          eng,
		block:        block,
		base:         base,
		mv:           mvstate.NewMVMemory(),
		txs:          make([]txState, n),
		tasks:        make([]puTask, cfg.NumPUs),
		conflictSeen: make(map[Conflict]bool),
		res:          res,
	}
	for i := range ex.txs {
		ex.txs[i].execInc = -1
		ex.txs[i].blockedOn = -1
	}

	var now uint64
	for {
		// Give work to every idle PU, in PU order (deterministic).
		for p := 0; p < cfg.NumPUs; p++ {
			if ex.tasks[p].active {
				continue
			}
			tx, validation, ok := ex.nextTask()
			if !ok {
				break
			}
			ex.start(p, tx, validation, now)
		}

		// Advance to the earliest completion; drain when no PU is busy.
		next := ^uint64(0)
		anyBusy := false
		for p := 0; p < cfg.NumPUs; p++ {
			if ex.tasks[p].active {
				anyBusy = true
				if ex.tasks[p].end < next {
					next = ex.tasks[p].end
				}
			}
		}
		if !anyBusy {
			break
		}
		now = next
		for p := 0; p < cfg.NumPUs; p++ {
			if ex.tasks[p].active && ex.tasks[p].end == now {
				ex.finish(p, now)
			}
		}
	}

	for i := range ex.txs {
		if ex.txs[i].status != statusExecuted {
			return nil, fmt.Errorf("stm: scheduler drained with tx %d not executed (status %d)", i, ex.txs[i].status)
		}
	}
	for i := range ex.txs {
		if err := ex.txs[i].execErr; err != nil {
			// The final incarnation's reads survived validation, so the
			// failure is genuine under sequential order, not speculation.
			return nil, fmt.Errorf("stm: tx %d: %w", i, err)
		}
	}

	ex.commit()
	res.Makespan = now
	var busy uint64
	for _, b := range res.BusyCycles {
		busy += b
	}
	res.Stats.IdleCycles = uint64(cfg.NumPUs)*now - busy
	sort.Slice(ex.conflicts, func(i, j int) bool {
		if ex.conflicts[i].From != ex.conflicts[j].From {
			return ex.conflicts[i].From < ex.conflicts[j].From
		}
		return ex.conflicts[i].To < ex.conflicts[j].To
	})
	res.Conflicts = ex.conflicts
	return res, nil
}

// nextTask implements the collaborative scheduler's task selection:
// validation is preferred whenever the validation counter trails the
// execution counter; counters skip transactions not in the matching
// state (they are revisited when a publish or abort pulls the counter
// back).
func (ex *executor) nextTask() (tx int, validation, ok bool) {
	n := len(ex.txs)
	for {
		if ex.valIdx < ex.execIdx && ex.valIdx < n {
			tx := ex.valIdx
			ex.valIdx++
			if ex.txs[tx].status == statusExecuted {
				return tx, true, true
			}
			continue
		}
		if ex.execIdx < n {
			tx := ex.execIdx
			ex.execIdx++
			if ex.txs[tx].status == statusReady {
				return tx, false, true
			}
			continue
		}
		return 0, false, false
	}
}

func (ex *executor) pullExec(tx int) {
	if tx < ex.execIdx {
		ex.execIdx = tx
	}
}

func (ex *executor) pullVal(tx int) {
	if tx < ex.valIdx {
		ex.valIdx = tx
	}
}

// start runs the task's functional part at the current instant and books
// the PU until the task's cycle cost elapses.
func (ex *executor) start(p, tx int, validation bool, now uint64) {
	st := &ex.txs[tx]
	t := puTask{active: true, validation: validation, tx: tx, start: now}
	if validation {
		t.inc = st.execInc
		pass, from := ex.validate(tx)
		if pass {
			t.outcome.kind = outValPass
		} else {
			t.outcome.kind = outValFail
			t.outcome.conflictFrom = from
		}
		t.end = now + ex.cfg.ValidateBase + ex.cfg.ValidatePerKey*uint64(len(st.reads)) + ex.cfg.ScheduleOverhead
	} else {
		st.status = statusExecuting
		t.inc = st.incarnation
		t.outcome = ex.runIncarnation(tx)
		t.end = now + ex.eng.Dispatch(p, tx) + ex.cfg.ScheduleOverhead
	}
	ex.tasks[p] = t
}

// validate re-reads tx's recorded read set against the current
// multi-version memory. A mismatch or an ESTIMATE means the observed
// writer changed since execution; the second return is the conflicting
// writer (BaseVersion when neither side names one).
func (ex *executor) validate(tx int) (bool, int) {
	for _, o := range ex.txs[tx].reads {
		cur := ex.mv.Read(o.Key, tx)
		if cur.Status == mvstate.ReadEstimate {
			return false, cur.Ver.Tx
		}
		if cur.Ver != o.Ver {
			from := cur.Ver.Tx
			if from == mvstate.BaseVersion {
				from = o.Ver.Tx
			}
			return false, from
		}
	}
	return true, mvstate.BaseVersion
}

// runIncarnation executes one speculative attempt of tx against a fresh
// view, capturing its read/write sets. An ESTIMATE read unwinds here via
// panic and becomes an outExecEstimate outcome.
func (ex *executor) runIncarnation(tx int) (out pendingOutcome) {
	view := mvstate.NewView(ex.base, ex.mv, tx, ex.block.Header.Coinbase)
	defer func() {
		if r := recover(); r != nil {
			ab, isAbort := r.(mvstate.EstimateAbort)
			if !isAbort {
				panic(r)
			}
			out = pendingOutcome{kind: outExecEstimate, dep: ab.Dep}
		}
	}()
	e := evm.New(evm.NewBlockContext(ex.block.Header), view)
	r, err := evm.ApplyTransaction(e, ex.block.Transactions[tx], tx)
	out.reads = view.ReadSet()
	if err != nil {
		out.kind = outExecFailed
		out.err = err
		return out
	}
	out.kind = outExecOK
	out.receipt = r
	out.writeKeys, out.writeVals = view.WriteSet()
	out.feeDelta = view.FeeDelta()
	return out
}

// finish applies a completed task's outcome at the current instant.
// Validation outcomes are dropped when the incarnation they judged has
// been superseded meanwhile (a fresher execution re-enters validation on
// its own).
func (ex *executor) finish(p int, now uint64) {
	t := ex.tasks[p]
	ex.tasks[p].active = false
	st := &ex.txs[t.tx]
	cost := t.end - t.start
	ex.res.BusyCycles[p] += cost
	ex.res.Dispatches = append(ex.res.Dispatches, Dispatch{
		Tx: t.tx, Incarnation: t.inc, PU: p, Start: t.start, End: t.end, Validation: t.validation,
	})

	if t.validation {
		ex.res.Stats.ValidateCycles += cost
		if st.status != statusExecuted || st.execInc != t.inc {
			return // stale outcome
		}
		switch t.outcome.kind {
		case outValPass:
			ex.res.Stats.ValidationPasses++
			if ex.cfg.Tel != nil {
				ex.cfg.Tel.STMValidationPasses.Inc()
			}
		case outValFail:
			ex.res.Stats.ValidationFails++
			ex.res.Stats.Aborts++
			ex.res.Stats.WastedCycles += st.lastExecCost
			if ex.cfg.Tel != nil {
				ex.cfg.Tel.STMValidationFails.Inc()
				ex.cfg.Tel.STMAborts.Inc()
			}
			ex.addConflict(t.outcome.conflictFrom, t.tx)
			// The aborted writer's entries become ESTIMATEs: readers of
			// these locations block on the re-execution instead of
			// speculating through values about to change.
			for _, k := range st.writeKeys {
				ex.mv.MarkEstimate(k, t.tx)
			}
			st.status = statusReady
			st.incarnation++
			ex.pullExec(t.tx)
			ex.pullVal(t.tx + 1)
		}
		return
	}

	// Execution completion.
	ex.res.Stats.Incarnations++
	ex.res.Stats.ExecCycles += cost
	if ex.cfg.Tel != nil {
		ex.cfg.Tel.STMIncarnations.Inc()
	}
	switch t.outcome.kind {
	case outExecEstimate:
		ex.res.Stats.EstimateAborts++
		ex.res.Stats.Aborts++
		ex.res.Stats.WastedCycles += cost
		if ex.cfg.Tel != nil {
			ex.cfg.Tel.STMEstimateAborts.Inc()
			ex.cfg.Tel.STMAborts.Inc()
		}
		ex.addConflict(t.outcome.dep, t.tx)
		st.incarnation++
		dep := t.outcome.dep
		if dep >= 0 && ex.txs[dep].status != statusExecuted {
			st.status = statusBlocked
			st.blockedOn = dep
			st.blockedSince = now
			ex.res.Stats.EstimateWaits++
			ex.txs[dep].dependents = append(ex.txs[dep].dependents, t.tx)
		} else {
			// The writer already re-published while we were charged for
			// the aborted cycles — retry immediately.
			st.status = statusReady
			ex.pullExec(t.tx)
		}

	case outExecFailed:
		// A protocol error (nonce mismatch, insufficient funds) under
		// speculation: withdraw any previously published writes so later
		// readers read around us, keep the read set, and let validation
		// decide whether the error came from stale reads (then we abort
		// and re-execute) or is genuine (then the whole run errors out).
		for _, k := range st.writeKeys {
			ex.mv.Remove(k, t.tx)
		}
		st.writeKeys, st.writeVals = nil, nil
		st.reads = t.outcome.reads
		st.receipt = nil
		st.execErr = t.outcome.err
		st.feeDelta = uint256.Int{}
		st.execInc = t.inc
		st.lastExecCost = cost
		st.status = statusExecuted
		ex.pullVal(t.tx)
		ex.resumeDependents(t.tx, now)

	case outExecOK:
		newKeys := make(map[state.AccessKey]bool, len(t.outcome.writeKeys))
		for i, k := range t.outcome.writeKeys {
			newKeys[k] = true
			ex.mv.Write(k, t.tx, t.inc, t.outcome.writeVals[i])
		}
		for _, k := range st.writeKeys {
			if !newKeys[k] {
				ex.mv.Remove(k, t.tx)
			}
		}
		st.writeKeys, st.writeVals = t.outcome.writeKeys, t.outcome.writeVals
		st.reads = t.outcome.reads
		st.receipt = t.outcome.receipt
		st.execErr = nil
		st.feeDelta = t.outcome.feeDelta
		st.execInc = t.inc
		st.lastExecCost = cost
		st.status = statusExecuted
		ex.pullVal(t.tx)
		ex.resumeDependents(t.tx, now)
	}
}

// resumeDependents unblocks every transaction waiting on tx's
// re-execution, charging the wait to the ESTIMATE-stall counter.
func (ex *executor) resumeDependents(tx int, now uint64) {
	st := &ex.txs[tx]
	for _, d := range st.dependents {
		ds := &ex.txs[d]
		if ds.status == statusBlocked && ds.blockedOn == tx {
			ds.status = statusReady
			ds.blockedOn = -1
			ex.res.Stats.EstimateWaitCycles += now - ds.blockedSince
			ex.pullExec(d)
		}
	}
	st.dependents = st.dependents[:0]
}

// addConflict records a deduplicated runtime conflict edge from → to.
func (ex *executor) addConflict(from, to int) {
	if from < 0 || from == to {
		return
	}
	c := Conflict{From: from, To: to}
	if ex.conflictSeen[c] {
		return
	}
	ex.conflictSeen[c] = true
	ex.conflicts = append(ex.conflicts, c)
}

// commit concatenates every transaction's committed write set in
// transaction order — later writers overwrite earlier ones, exactly as
// the multi-version memory resolves reads, and exactly as DigestAfter
// resolves a repeated key — and prices it, with the accumulated fees
// credited to the coinbase, over the base: no copy of the base state is
// ever made.
func (ex *executor) commit() {
	var keys []state.AccessKey
	var vals []mvstate.Value
	var fees uint256.Int
	receipts := make([]*types.Receipt, len(ex.txs))
	for i := range ex.txs {
		st := &ex.txs[i]
		receipts[i] = st.receipt
		keys = append(keys, st.writeKeys...)
		vals = append(vals, st.writeVals...)
		fees.Add(&fees, &st.feeDelta)
	}
	ex.res.Receipts = receipts
	ex.res.Digest = ex.base.DigestAfter(keys, vals, ex.block.Header.Coinbase, &fees)
}
