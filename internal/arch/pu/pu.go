// Package pu models one processing unit of the MTPU: the instruction
// pipeline (arch/pipeline) plus the transaction-context machinery — the
// Call_Contract stack that loads contract bytecode (the dominant context
// cost, Table 2) and keeps it resident for redundant transactions, and
// the fixed per-transaction setup work.
package pu

import (
	"mtpu/internal/arch"
	"mtpu/internal/arch/pipeline"
	"mtpu/internal/evm"
	"mtpu/internal/obs"
	"mtpu/internal/types"
)

// DefaultContractResidency is used when the configuration leaves
// ContractResidency unset.
const DefaultContractResidency = 8

// Plan is a transaction prepared for timing replay, in the form the
// pipeline replays directly: the (possibly hotspot-filtered) steps, their
// annotations, the precomputed hot-path image of both, and per-contract
// bytecode load scaling from chunk-based loading (§3.4.2). Plans are
// only read during replay, so one plan set serves concurrent replays.
type Plan struct {
	Trace *arch.TxTrace
	// Steps are the instructions that actually issue (pre-executed and
	// eliminated instructions removed). A plain plan aliases Trace.Steps,
	// so neither may be written once the plan exists.
	Steps []evm.Step
	// Ann holds the hotspot annotations parallel to Steps; nil means none.
	Ann []pipeline.Annotation
	// Hot is pipeline.NewHotPlan(Steps, Ann), built by NewPlan.
	Hot *pipeline.HotPlan
	// LoadScale maps a contract address to the fraction of its bytecode
	// loaded (1.0 when hotspot chunking is off). Missing entries mean 1.
	LoadScale map[types.Address]float64
	// SkippedInstructions counts instructions removed by hotspot
	// optimization (for reporting).
	SkippedInstructions int

	// Memo is an optional shared fill-segmentation memo (see
	// AttachFillMemo); the PU attaches it to its pipeline before replay.
	Memo *pipeline.FillMemo
}

// NewPlan returns the plan replaying steps (with annotations ann, nil
// for none) on behalf of trace t. The slices are retained, not copied.
func NewPlan(t *arch.TxTrace, steps []evm.Step, ann []pipeline.Annotation) *Plan {
	return &Plan{Trace: t, Steps: steps, Ann: ann, Hot: pipeline.NewHotPlan(steps, ann)}
}

// PlainPlan wraps a trace with no hotspot optimization, sharing its
// steps.
func PlainPlan(t *arch.TxTrace) *Plan { return NewPlan(t, t.Steps, nil) }

// PlainPlans builds the unoptimized plan of every trace.
func PlainPlans(traces []*arch.TxTrace) []*Plan {
	plans := make([]*Plan, len(traces))
	for i, t := range traces {
		plans[i] = PlainPlan(t)
	}
	return plans
}

// AttachFillMemo computes the shared fill-segmentation memo of a plan
// set under the default fill rules and attaches it to every plan, so
// all PUs and all replays of the set reuse one canonical segmentation
// instead of each re-deriving it. Worth doing only for plan sets that
// are replayed repeatedly (cached entries); a one-shot replay would pay
// the build without amortizing it. Must be called before the plans are
// shared across goroutines.
func AttachFillMemo(cfg arch.Config, plans []*Plan) {
	memo := pipeline.NewFillMemo(cfg)
	for _, p := range plans {
		memo.AddTrace(p.Steps, p.Ann)
	}
	for _, p := range plans {
		p.Memo = memo
	}
}

// Cost breaks down the cycles of one transaction on a PU.
type Cost struct {
	Total    uint64
	Load     uint64 // context construction (bytecode + setup)
	Pipeline uint64 // instruction execution
}

// PU is one processing unit with persistent microarchitectural state.
type PU struct {
	ID  int
	cfg arch.Config

	pipe *pipeline.Pipeline

	// resident tracks contracts loaded in the Call_Contract stack (LRU).
	resident []types.Address

	// LastContract is the contract of the most recent transaction; the
	// scheduler steers redundant transactions here (§3.2.2).
	LastContract types.Address

	// BusyUntil is the completion time used by the discrete-event engine.
	BusyUntil uint64
	// BusyCycles accumulates working (non-idle) time for utilization.
	BusyCycles uint64
	// LoadCycles is the context-construction share of BusyCycles
	// (bytecode loading plus per-transaction setup) — the load-stall
	// term of the internal/obs cycle attribution.
	LoadCycles uint64
	// TxCount counts transactions executed on this PU.
	TxCount int
}

// New returns an idle PU.
func New(id int, cfg arch.Config) *PU {
	return &PU{ID: id, cfg: cfg, pipe: pipeline.New(cfg)}
}

// Pipeline exposes the pipeline for stats collection.
func (p *PU) Pipeline() *pipeline.Pipeline { return p.pipe }

// Reset returns the PU to its just-constructed state (pipeline arenas
// kept warm), so a pooled PU replays byte-identically to a fresh one.
func (p *PU) Reset() {
	p.pipe.Reset()
	p.pipe.SetSink(nil, p.ID)
	p.resident = p.resident[:0]
	p.LastContract = types.Address{}
	p.BusyUntil = 0
	p.BusyCycles = 0
	p.LoadCycles = 0
	p.TxCount = 0
}

// SetSink attaches an instrumentation sink to the PU's pipeline,
// labelling events with the PU id. nil disables.
func (p *PU) SetSink(s obs.Sink) { p.pipe.SetSink(s, p.ID) }

// isResident reports (and refreshes) Call_Contract stack residency.
func (p *PU) isResident(addr types.Address) bool {
	for i, a := range p.resident {
		if a == addr {
			// Move to front.
			copy(p.resident[1:i+1], p.resident[:i])
			p.resident[0] = a
			return true
		}
	}
	return false
}

func (p *PU) load(addr types.Address) {
	cap := p.cfg.ContractResidency
	if cap <= 0 {
		cap = DefaultContractResidency
	}
	p.resident = append([]types.Address{addr}, p.resident...)
	if len(p.resident) > cap {
		p.resident = p.resident[:cap]
	}
}

// Run replays one transaction and returns its cycle cost. PU state (DB
// cache, residency) persists across calls when ReuseContext is enabled
// and is flushed otherwise.
func (p *PU) Run(plan *Plan, mem pipeline.MemModel) Cost {
	if !p.cfg.ReuseContext {
		p.pipe.Flush()
		p.resident = p.resident[:0]
	}

	var cost Cost
	cost.Load = p.cfg.TxSetupLat

	t := plan.Trace
	if t.IsTransfer {
		// A token transfer touches two balances and writes them back.
		cost.Load += 2 * p.cfg.MainMemLat
		cost.Total = cost.Load
		p.finish(t, cost)
		return cost
	}

	for _, cl := range t.CodeLoads {
		if cl.CodeBytes == 0 {
			continue
		}
		if p.cfg.ReuseContext && p.isResident(cl.Addr) {
			// Bytecode reused from the Call_Contract stack (§3.3.5).
			continue
		}
		bytes := uint64(cl.CodeBytes)
		if plan.LoadScale != nil {
			if f, ok := plan.LoadScale[cl.Addr]; ok {
				bytes = uint64(float64(bytes)*f + 0.5)
			}
		}
		bw := p.cfg.CodeLoadBytesPerCycle
		if bw == 0 {
			bw = 1
		}
		cost.Load += (bytes + bw - 1) / bw
		p.load(cl.Addr)
	}

	p.pipe.SetFillMemo(plan.Memo)
	p.pipe.SetSymbols(t.Syms)
	cost.Pipeline = p.pipe.Execute(plan.Steps, plan.Ann, plan.Hot, mem)
	cost.Total = cost.Load + cost.Pipeline
	p.finish(t, cost)
	return cost
}

func (p *PU) finish(t *arch.TxTrace, cost Cost) {
	p.LastContract = t.Contract
	p.BusyCycles += cost.Total
	p.LoadCycles += cost.Load
	p.TxCount++
}
