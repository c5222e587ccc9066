// Package hotspot implements the §3.4 optimization of frequently invoked
// contracts, performed offline in the block-generation interval:
//
//   - execution-path collection per (contract, entry function) into a
//     Contract Table (§3.4.1);
//   - bytecode chunking into Compare / Check / Execute / End and
//     pre-execution of the Compare+Check chunks, which depend only on
//     transaction attributes known before the execution stage (§3.4.2);
//   - constant-instruction elimination and merging via operand
//     backtracking into a Constants Table (§3.4.3);
//   - data prefetching for fixed-access instructions and for dynamic
//     accesses whose keys derive from constants and transaction
//     attributes (§3.4.4).
//
// The analyzer is an abstract interpreter over an execution trace: each
// stack slot and memory word carries a tag (constant / transaction
// attribute / dynamic) and a def-use chain, from which the per-pc
// annotation sets are derived.
package hotspot

import (
	"mtpu/internal/arch"
	"mtpu/internal/evm"
	"mtpu/internal/types"
)

// tag is the abstract value lattice: Const < Attr < Dyn.
type tag uint8

const (
	tagConst tag = iota // compile-time constant (push immediates and pure functions of them)
	tagAttr             // transaction/block attribute, known before the execution stage
	tagDyn              // runtime-dependent
)

func maxTag(a, b tag) tag {
	if a > b {
		return a
	}
	return b
}

// slotInfo is one abstract stack slot.
type slotInfo struct {
	t tag
	// producer is the step index that pushed this value, -1 if it
	// pre-existed the analyzed window.
	producer int
}

// The per-pc annotation bits of a Contract Table entry.
const (
	pcSkip     uint8 = 1 << iota // eliminated by constant backtracking
	pcConstOps                   // reads its operands from the Constants Table
	pcPrefetch                   // storage/state read with a deterministic key
)

// pcFlags holds one code address's annotation bits, indexed by pc; a pc
// at or beyond its length carries none. Rows are kept trimmed (no
// trailing zero) and a row with no bit set is dropped, so equal sets
// have equal rows.
type pcFlags []uint8

// at returns the bits of pc.
func (r pcFlags) at(pc uint64) uint8 {
	if pc < uint64(len(r)) {
		return r[pc]
	}
	return 0
}

// grown returns r, extended with zeros to cover pc if it is too short.
func (r pcFlags) grown(pc uint64) pcFlags {
	if pc < uint64(len(r)) {
		return r
	}
	return append(r, make(pcFlags, pc+1-uint64(len(r)))...)
}

// canonicalize trims every row of flags and drops the empty ones.
func canonicalize(flags map[types.Address]pcFlags) {
	for addr, row := range flags {
		n := len(row)
		for n > 0 && row[n-1] == 0 {
			n--
		}
		if n == 0 {
			delete(flags, addr)
		} else {
			flags[addr] = row[:n]
		}
	}
}

// flagReader reads a flag map step by step, looking a row up by the
// address syms names only when the executing code id changes.
type flagReader struct {
	flags map[types.Address]pcFlags
	syms  *arch.SymbolTable
	id    uint32
	row   pcFlags
}

func (r *flagReader) at(s *evm.Step) uint8 {
	if s.CodeID != r.id {
		r.id, r.row = s.CodeID, r.flags[r.syms.CodeAddr(s.CodeID)]
	}
	return r.row.at(s.PC)
}

// analysis is the result of one trace analysis.
type analysis struct {
	preExecLen int
	flags      map[types.Address]pcFlags
	loadFrac   map[types.Address]float64
}

// preExecLen finds the boundary of the Compare (+Check) chunks: the
// leading top-frame steps through the dispatcher's taken JUMPI and, if
// present, the CallValue check ending at its landing JUMPDEST. These
// depend only on the To/Input/CallValue fields, all known in the
// dissemination stage, so they are pre-executed in the block interval.
func preExecLen(steps []evm.Step) int {
	if len(steps) == 0 {
		return 0
	}
	d0 := steps[0].Depth
	taken := -1
	for i := 0; i < len(steps); i++ {
		if steps[i].Depth != d0 {
			return 0 // a call before dispatch — not a standard dispatcher
		}
		op := steps[i].Op
		if op == evm.JUMPI {
			if steps[i].BranchTaken {
				taken = i
				break
			}
			continue // a failed selector compare; keep scanning the chain
		}
		if op.Unit() == evm.FUStorage || op.Unit() == evm.FUContext {
			return 0 // body work before any dispatch
		}
	}
	if taken < 0 {
		return 0
	}
	end := taken + 1
	// Optional Check chunk: JUMPDEST, POP, CALLVALUE, ISZERO, PUSH, JUMPI.
	sawCallValue := false
	for j := taken + 1; j < len(steps) && j <= taken+8; j++ {
		if steps[j].Depth != d0 {
			break
		}
		op := steps[j].Op
		switch {
		case op == evm.CALLVALUE:
			sawCallValue = true
		case op == evm.JUMPI:
			if sawCallValue && steps[j].BranchTaken {
				end = j + 1
				if j+1 < len(steps) && steps[j+1].Op == evm.JUMPDEST {
					end = j + 2
				}
			}
			return end
		case op.Unit() == evm.FUStorage || op.Unit() == evm.FUContext ||
			op.Unit() == evm.FUMemory || op.Unit() == evm.FUSHA:
			return end // function body started
		}
	}
	return end
}

// envTag classifies zero-operand environment reads.
func envTag(op evm.Opcode) (tag, bool) {
	switch op {
	case evm.ADDRESS, evm.ORIGIN, evm.CALLER, evm.CALLVALUE, evm.CALLDATASIZE,
		evm.GASPRICE, evm.CODESIZE, evm.COINBASE, evm.TIMESTAMP, evm.NUMBER,
		evm.DIFFICULTY, evm.GASLIMIT:
		return tagAttr, true
	case evm.GAS, evm.PC, evm.MSIZE, evm.RETURNDATASIZE:
		return tagDyn, true
	}
	return tagDyn, false
}

// pureCompute reports opcodes whose result is a pure function of their
// operands (candidates for constant folding/elimination).
func pureCompute(op evm.Opcode) bool {
	switch op.Unit() {
	case evm.FUArithmetic, evm.FULogic:
		return true
	}
	return false
}

// analyzeTrace runs the abstract interpretation and derives the
// annotation sets.
func analyzeTrace(t *arch.TxTrace) *analysis {
	steps := t.Steps
	n := len(steps)

	a := &analysis{
		flags:    make(map[types.Address]pcFlags),
		loadFrac: make(map[types.Address]float64),
	}
	a.preExecLen = preExecLen(steps)

	// Per-depth abstract stacks and memory word tags.
	stacks := make(map[int][]slotInfo)
	memTags := make(map[int]map[uint64]tag)

	operandAllConst := make([]bool, n)
	hasOperands := make([]bool, n)
	outAllConst := make([]bool, n)
	consumers := make(map[int][]int)
	prefetchable := make([]bool, n)

	for i := 0; i < n; i++ {
		s := &steps[i]
		op := s.Op
		d := s.Depth
		st := stacks[d]
		mem := memTags[d]
		if mem == nil {
			mem = make(map[uint64]tag)
			memTags[d] = mem
		}

		popSlot := func() slotInfo {
			if len(st) == 0 {
				return slotInfo{t: tagDyn, producer: -1}
			}
			v := st[len(st)-1]
			st = st[:len(st)-1]
			if v.producer >= 0 {
				consumers[v.producer] = append(consumers[v.producer], i)
			}
			return v
		}
		peekSlot := func(k int) slotInfo {
			if k >= len(st) {
				return slotInfo{t: tagDyn, producer: -1}
			}
			return st[len(st)-1-k]
		}
		push := func(t tag) {
			st = append(st, slotInfo{t: t, producer: i})
		}

		var opnds []tag
		switch {
		case op.IsPush():
			push(tagConst)

		case op.IsDup():
			k := int(op - evm.DUP1)
			src := peekSlot(k)
			opnds = []tag{src.t}
			if src.producer >= 0 {
				consumers[src.producer] = append(consumers[src.producer], i)
			}
			push(src.t)

		case op.IsSwap():
			k := int(op-evm.SWAP1) + 1
			if k < len(st) {
				top := len(st) - 1
				opnds = []tag{st[top].t, st[top-k].t}
				st[top], st[top-k] = st[top-k], st[top]
			} else {
				opnds = []tag{tagDyn}
			}

		case op == evm.POP:
			v := popSlot()
			opnds = []tag{v.t}

		case op == evm.SHA3:
			off := popSlot()
			size := popSlot()
			opnds = []tag{off.t, size.t}
			result := maxTag(off.t, size.t)
			if result <= tagAttr {
				// Scan the hashed words' tags.
				for w := s.MemOffset; w < s.MemOffset+s.MemBytes; w += 32 {
					wt, ok := mem[w]
					if !ok {
						wt = tagDyn
					}
					result = maxTag(result, wt)
				}
			} else {
				result = tagDyn
			}
			push(result)

		case op == evm.CALLDATALOAD:
			offT := popSlot().t
			opnds = []tag{offT}
			if offT <= tagAttr {
				push(tagAttr)
			} else {
				push(tagDyn)
			}

		case op == evm.MLOAD:
			offT := popSlot().t
			opnds = []tag{offT}
			if offT == tagConst {
				wt, ok := mem[s.MemOffset]
				if !ok {
					wt = tagDyn
				}
				push(wt)
			} else {
				push(tagDyn)
			}

		case op == evm.MSTORE:
			offT := popSlot().t
			val := popSlot()
			opnds = []tag{offT, val.t}
			if offT == tagConst {
				mem[s.MemOffset] = val.t
			}
			// Unknown destination: conservatively poison nothing specific
			// (the model only uses tags for SHA3/MLOAD ranges we track).

		case op == evm.MSTORE8:
			offT := popSlot().t
			val := popSlot()
			opnds = []tag{offT, val.t}
			mem[s.MemOffset-s.MemOffset%32] = tagDyn

		case op == evm.CALLDATACOPY:
			mo := popSlot()
			do := popSlot()
			sz := popSlot()
			opnds = []tag{mo.t, do.t, sz.t}
			if mo.t == tagConst {
				for w := s.MemOffset; w < s.MemOffset+s.MemBytes; w += 32 {
					mem[w] = tagAttr
				}
			}

		case op == evm.CODECOPY:
			mo := popSlot()
			co := popSlot()
			sz := popSlot()
			opnds = []tag{mo.t, co.t, sz.t}
			if mo.t == tagConst {
				for w := s.MemOffset; w < s.MemOffset+s.MemBytes; w += 32 {
					mem[w] = tagAttr
				}
			}

		case op == evm.SLOAD:
			key := popSlot()
			opnds = []tag{key.t}
			prefetchable[i] = key.t <= tagAttr
			push(tagDyn)

		case op == evm.BALANCE || op == evm.EXTCODESIZE || op == evm.EXTCODEHASH:
			key := popSlot()
			opnds = []tag{key.t}
			prefetchable[i] = key.t <= tagAttr
			push(tagDyn)

		case op == evm.BLOCKHASH:
			key := popSlot()
			opnds = []tag{key.t}
			if key.t <= tagAttr {
				push(tagAttr)
			} else {
				push(tagDyn)
			}

		default:
			// Generic transfer: pop per table, push Dyn unless pure.
			pops := op.Pops()
			result := tagConst
			for k := 0; k < pops; k++ {
				v := popSlot()
				opnds = append(opnds, v.t)
				result = maxTag(result, v.t)
			}
			if et, ok := envTag(op); ok && pops == 0 {
				result = et
			} else if !pureCompute(op) {
				result = tagDyn
			}
			for k := 0; k < op.Pushes(); k++ {
				push(result)
			}
		}

		stacks[d] = st

		hasOperands[i] = len(opnds) > 0
		operandAllConst[i] = len(opnds) > 0
		for _, t := range opnds {
			if t != tagConst {
				operandAllConst[i] = false
			}
		}
		// Output constness for the elimination pass.
		outAllConst[i] = false
		switch {
		case op.IsPush():
			outAllConst[i] = true
		case op.IsDup():
			outAllConst[i] = len(opnds) == 1 && opnds[0] == tagConst
		case op.IsSwap():
			outAllConst[i] = len(opnds) == 2 && opnds[0] == tagConst && opnds[1] == tagConst
		case pureCompute(op):
			outAllConst[i] = operandAllConst[i]
		}
	}

	// Elimination (reverse pass): a pure/stack instruction whose outputs
	// are constants and whose every consumer either is eliminated too or
	// reads its operands from the Constants Table can be removed from
	// the issued stream (§3.4.3).
	skip := make([]bool, n)
	constOp := make([]bool, n)
	for i := range steps {
		op := steps[i].Op
		if operandAllConst[i] && !op.IsPush() {
			constOp[i] = true
		}
	}
	for i := n - 1; i >= 0; i-- {
		op := steps[i].Op
		base := op.IsPush() || op.IsDup() || op.IsSwap() || op == evm.POP || pureCompute(op)
		if !base || !outAllConst[i] {
			continue
		}
		if op == evm.POP || op.IsSwap() {
			// No def-use successors: removable when operands are constant.
			skip[i] = operandAllConst[i] || op.IsSwap() && outAllConst[i]
			continue
		}
		cons := consumers[i]
		if len(cons) == 0 {
			continue // value still live at frame end
		}
		ok := true
		for _, c := range cons {
			if !skip[c] && !constOp[c] {
				ok = false
				break
			}
		}
		skip[i] = ok
	}

	// Project to per-(addr,pc) flags; a pc keeps a flag only if every
	// dynamic occurrence had it (conservative intersection). The seen
	// bit marks pcs that already voted.
	const seen = 0x80
	var addr types.Address
	var row pcFlags
	for i := range steps {
		s := &steps[i]
		if i == 0 || s.CodeID != steps[i-1].CodeID {
			if i > 0 {
				a.flags[addr] = row
			}
			addr = t.Syms.CodeAddr(s.CodeID)
			row = a.flags[addr]
		}
		row = row.grown(s.PC)
		f := uint8(seen)
		if skip[i] {
			f |= pcSkip
		}
		if constOp[i] {
			f |= pcConstOps
		}
		if prefetchable[i] {
			f |= pcPrefetch
		}
		if row[s.PC]&seen == 0 {
			row[s.PC] = f
		} else {
			row[s.PC] &= f
		}
	}
	if n > 0 {
		a.flags[addr] = row
	}
	for _, row := range a.flags {
		for pc := range row {
			row[pc] &^= seen
		}
	}
	canonicalize(a.flags)

	// Chunk-based bytecode loading (§3.4.2): only executed bytes of each
	// contract, excluding the pre-executed prefix, are loaded.
	executedBytes := make(map[types.Address]map[uint64]int)
	for i := a.preExecLen; i < n; i++ {
		addr := t.Syms.CodeAddr(steps[i].CodeID)
		m := executedBytes[addr]
		if m == nil {
			m = make(map[uint64]int)
			executedBytes[addr] = m
		}
		m[steps[i].PC] = 1 + steps[i].Op.PushSize()
	}
	codeSize := make(map[types.Address]int)
	for _, cl := range t.CodeLoads {
		if cl.CodeBytes > codeSize[cl.Addr] {
			codeSize[cl.Addr] = cl.CodeBytes
		}
	}
	for addr, size := range codeSize {
		if size == 0 {
			continue
		}
		bytes := 0
		for _, b := range executedBytes[addr] {
			bytes += b
		}
		f := float64(bytes) / float64(size)
		if f > 1 {
			f = 1
		}
		a.loadFrac[addr] = f
	}
	return a
}
