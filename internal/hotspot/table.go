package hotspot

import (
	"sort"

	"mtpu/internal/arch"
	"mtpu/internal/arch/pipeline"
	"mtpu/internal/arch/pu"
	"mtpu/internal/evm"
	"mtpu/internal/types"
)

// Key identifies one Contract Table row: transactions with the same
// contract address and entry-function identifier have almost completely
// overlapping execution paths (§3.4.1).
type Key struct {
	Addr     types.Address
	Selector [4]byte
}

// PathInfo is one Contract Table entry: the learned execution-path facts
// used to rewrite future transactions of this (contract, function).
type PathInfo struct {
	Key Key
	// PreExecLen is the number of leading top-frame steps covered by the
	// pre-executed Compare+Check chunks.
	PreExecLen int
	// Flags holds the per-pc annotations, one row per code address, so
	// identical pcs in different contracts (or a proxy and its
	// implementation) never collide: pcSkip marks instructions
	// eliminated by constant backtracking, pcConstOps those reading
	// operands from the Constants Table (their stack dependencies
	// disappear), pcPrefetch storage/state reads with deterministic keys.
	Flags map[types.Address]pcFlags
	// LoadFrac scales each contract's bytecode-loading cost to the
	// on-path chunks.
	LoadFrac map[types.Address]float64
	// Samples counts traces merged into this entry.
	Samples int

	// paths are the execution paths already merged (see path.go).
	paths []learnedPath
}

// ContractTable persists hotspot execution information across blocks
// (§3.4.1); it is built offline during the block interval.
type ContractTable struct {
	entries map[Key]*PathInfo

	// analyzed and reused split the traces Learn accepted into those it
	// ran the analyser on and those whose path an entry already held.
	analyzed, reused uint64
}

// NewContractTable returns an empty table.
func NewContractTable() *ContractTable {
	return &ContractTable{entries: make(map[Key]*PathInfo)}
}

// Len returns the number of (contract, function) entries.
func (t *ContractTable) Len() int { return len(t.entries) }

// Keys returns the table's keys in deterministic order.
func (t *ContractTable) Keys() []Key {
	keys := make([]Key, 0, len(t.entries))
	for k := range t.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Addr != keys[j].Addr {
			return string(keys[i].Addr[:]) < string(keys[j].Addr[:])
		}
		return string(keys[i].Selector[:]) < string(keys[j].Selector[:])
	})
	return keys
}

// Lookup returns the entry for a (contract, selector), nil if absent.
func (t *ContractTable) Lookup(addr types.Address, sel [4]byte) *PathInfo {
	return t.entries[Key{addr, sel}]
}

// Learn merges a profiled trace into the table. Repeated learning on
// diverging traces intersects the annotation sets (only facts that held
// on every sample survive). A trace whose execution path the entry has
// merged before is only counted: re-merging it would change nothing.
func (t *ContractTable) Learn(trace *arch.TxTrace) *PathInfo {
	if !trace.HasSelector || len(trace.Steps) == 0 {
		return nil
	}
	key := Key{trace.Contract, trace.Selector}
	hash := pathHash(trace)
	if info := t.entries[key]; info != nil && info.merged(hash, trace) {
		info.Samples++
		t.reused++
		return info
	}
	info := t.analyze(key, trace)
	t.analyzed++
	info.remember(hash, trace)
	return info
}

// LearnCounts returns how many traces Learn has analysed and how many
// it recognised as an already merged path, since the table was made.
func (t *ContractTable) LearnCounts() (analyzed, reused uint64) {
	return t.analyzed, t.reused
}

// Samples returns the number of traces merged into the table.
func (t *ContractTable) Samples() uint64 {
	var n uint64
	for _, info := range t.entries {
		n += uint64(info.Samples)
	}
	return n
}

// analyze runs the analyser over the trace and merges the result into
// the key's entry, creating it on first sight.
func (t *ContractTable) analyze(key Key, trace *arch.TxTrace) *PathInfo {
	a := analyzeTrace(trace)

	info := t.entries[key]
	if info == nil {
		info = &PathInfo{
			Key:        key,
			PreExecLen: a.preExecLen,
			Flags:      a.flags,
			LoadFrac:   a.loadFrac,
			Samples:    1,
		}
		t.entries[key] = info
		return info
	}
	// Merge conservatively.
	if a.preExecLen < info.PreExecLen {
		info.PreExecLen = a.preExecLen
	}
	intersect(info.Flags, a.flags)
	for addr, f := range a.loadFrac {
		if old, ok := info.LoadFrac[addr]; !ok || f > old {
			info.LoadFrac[addr] = f // keep the largest observed footprint
		}
	}
	info.Samples++
	return info
}

// intersect keeps in dst only the flags src holds too, row by row.
func intersect(dst, src map[types.Address]pcFlags) {
	for addr, row := range dst {
		other := src[addr]
		for pc := range row {
			row[pc] &= other.at(uint64(pc))
		}
	}
	canonicalize(dst)
}

// Plan rewrites a transaction trace into an execution plan: pre-executed
// and eliminated instructions dropped, constant-operand and prefetch
// annotations attached, bytecode loading scaled to the on-path chunks.
// Unknown (non-hotspot) transactions pass through unoptimized.
func (t *ContractTable) Plan(trace *arch.TxTrace) *pu.Plan {
	if !trace.HasSelector {
		return pu.PlainPlan(trace)
	}
	info := t.Lookup(trace.Contract, trace.Selector)
	if info == nil {
		return pu.PlainPlan(trace)
	}
	// Count the kept steps first, so the plan's slices are exact.
	pre := min(info.PreExecLen, len(trace.Steps))
	r := flagReader{flags: info.Flags, syms: trace.Syms}
	kept := 0
	for i := pre; i < len(trace.Steps); i++ {
		if r.at(&trace.Steps[i])&pcSkip == 0 {
			kept++
		}
	}
	steps := make([]evm.Step, 0, kept)
	ann := make([]pipeline.Annotation, 0, kept)
	for i := pre; i < len(trace.Steps); i++ {
		f := r.at(&trace.Steps[i])
		if f&pcSkip != 0 {
			continue
		}
		steps = append(steps, trace.Steps[i])
		ann = append(ann, pipeline.Annotation{
			Prefetched:    f&pcPrefetch != 0,
			ConstOperands: f&pcConstOps != 0,
		})
	}
	plan := pu.NewPlan(trace, steps, ann)
	plan.LoadScale = info.LoadFrac
	plan.SkippedInstructions = len(trace.Steps) - len(steps)
	return plan
}

// LoadFractionOf reports the bytecode fraction loaded for the contract
// itself under this entry — the §3.4.2 metric (TetherToken transfer loads
// 8.2% of its bytecode in the paper).
func (info *PathInfo) LoadFractionOf(addr types.Address) float64 {
	if f, ok := info.LoadFrac[addr]; ok {
		return f
	}
	return 1
}
