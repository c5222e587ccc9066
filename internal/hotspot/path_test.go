package hotspot

import (
	"reflect"
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/evm"
	"mtpu/internal/types"
)

// pathTrace is a small hand-built trace: a dispatcher prefix, a hashed
// memory word and a nested frame, so every field the analyser reads has
// a non-trivial value somewhere. Its steps name their code through the
// trace's own symbol table, as a collected block's do.
func pathTrace() *arch.TxTrace {
	token := types.HexToAddress("0x1000000000000000000000000000000000000001")
	impl := types.HexToAddress("0x2000000000000000000000000000000000000002")
	syms := arch.NewSymbolTable()
	tok, imp := syms.CodeID(token), syms.CodeID(impl)
	return &arch.TxTrace{
		Contract:    token,
		Selector:    [4]byte{0xa9, 0x05, 0x9c, 0xbb},
		HasSelector: true,
		Steps: []evm.Step{
			{PC: 0, Op: evm.PUSH1, Depth: 1, CodeID: tok},
			{PC: 2, Op: evm.CALLDATALOAD, Depth: 1, CodeID: tok},
			{PC: 3, Op: evm.PUSH1, Depth: 1, CodeID: tok},
			{PC: 5, Op: evm.JUMPI, Depth: 1, CodeID: tok, BranchTaken: true},
			{PC: 9, Op: evm.JUMPDEST, Depth: 1, CodeID: tok},
			{PC: 10, Op: evm.PUSH1, Depth: 1, CodeID: tok},
			{PC: 12, Op: evm.PUSH1, Depth: 1, CodeID: tok},
			{PC: 14, Op: evm.MSTORE, Depth: 1, CodeID: tok, MemOffset: 0, MemBytes: 32},
			{PC: 15, Op: evm.PUSH1, Depth: 1, CodeID: tok},
			{PC: 17, Op: evm.PUSH1, Depth: 1, CodeID: tok},
			{PC: 19, Op: evm.SHA3, Depth: 1, CodeID: tok, MemOffset: 0, MemBytes: 64},
			{PC: 20, Op: evm.SLOAD, Depth: 1, CodeID: tok},
			{PC: 0, Op: evm.PUSH1, Depth: 2, CodeID: imp},
			{PC: 2, Op: evm.SLOAD, Depth: 2, CodeID: imp},
			{PC: 21, Op: evm.STOP, Depth: 1, CodeID: tok},
		},
		CodeLoads: []arch.CodeLoad{
			{Addr: token, CodeBytes: 4000, InputLen: 68, Depth: 1},
			{Addr: impl, CodeBytes: 900, InputLen: 36, Depth: 2, StepIndex: 12},
		},
		Syms: syms,
	}
}

func cloneTrace(t *arch.TxTrace) *arch.TxTrace {
	c := *t
	c.Steps = append([]evm.Step(nil), t.Steps...)
	c.CodeLoads = append([]arch.CodeLoad(nil), t.CodeLoads...)
	return &c
}

// TestPathCoversEveryAnalyzedField changes, one at a time, each field
// analyzeTrace reads and requires both the hash and the comparison to
// tell the paths apart — and the fields it does not read to leave both
// alone, so data-dependent values never split one path into many.
func TestPathCoversEveryAnalyzedField(t *testing.T) {
	other := types.HexToAddress("0x3000000000000000000000000000000000000003")
	base := pathTrace()
	table := NewContractTable()
	info := table.Learn(base)
	hash := pathHash(base)
	if !info.merged(hash, base) {
		t.Fatal("a learned path is not remembered")
	}

	// A step's code id counts through the address it names.
	covered := map[string]func(tr *arch.TxTrace){
		"Steps.CodeID": func(tr *arch.TxTrace) { tr.Steps[13].CodeID = tr.Syms.CodeID(other) },
		"Steps.CodeID tail": func(tr *arch.TxTrace) {
			addr := tr.Syms.CodeAddr(tr.Steps[13].CodeID)
			addr[19] ^= 1
			tr.Steps[13].CodeID = tr.Syms.CodeID(addr)
		},
		"Steps.PC":            func(tr *arch.TxTrace) { tr.Steps[6].PC++ },
		"Steps.Op":            func(tr *arch.TxTrace) { tr.Steps[11].Op = evm.BALANCE },
		"Steps.Depth":         func(tr *arch.TxTrace) { tr.Steps[12].Depth = 3 },
		"Steps.BranchTaken":   func(tr *arch.TxTrace) { tr.Steps[3].BranchTaken = false },
		"Steps.MemOffset":     func(tr *arch.TxTrace) { tr.Steps[10].MemOffset = 32 },
		"Steps.MemBytes":      func(tr *arch.TxTrace) { tr.Steps[10].MemBytes = 32 },
		"len(Steps)":          func(tr *arch.TxTrace) { tr.Steps = tr.Steps[:len(tr.Steps)-1] },
		"CodeLoads.Addr":      func(tr *arch.TxTrace) { tr.CodeLoads[1].Addr = other },
		"CodeLoads.CodeBytes": func(tr *arch.TxTrace) { tr.CodeLoads[1].CodeBytes++ },
		"len(CodeLoads)":      func(tr *arch.TxTrace) { tr.CodeLoads = tr.CodeLoads[:1] },
	}
	for name, perturb := range covered {
		tr := cloneTrace(base)
		perturb(tr)
		if pathHash(tr) == hash {
			t.Errorf("%s: the hash does not cover the field", name)
		}
		if info.merged(pathHash(tr), tr) {
			t.Errorf("%s: a different path counts as merged", name)
		}
		// A hash collision must still miss: only the comparison decides.
		if info.merged(hash, tr) {
			t.Errorf("%s: a colliding hash alone counts as merged", name)
		}
	}

	// Renumbering the code ids over the same addresses, as another
	// block's symbol table does, is the same path.
	ignored := map[string]func(tr *arch.TxTrace){
		"Steps.GasCost":           func(tr *arch.TxTrace) { tr.Steps[4].GasCost = 99 },
		"Steps.CodeID renumbered": func(tr *arch.TxTrace) { *tr = *RenumberCodeIDs([]*arch.TxTrace{tr})[0] },
		"Steps.TouchID":           func(tr *arch.TxTrace) { tr.Steps[11].TouchID = 5 },
		"CodeLoads.InputLen":      func(tr *arch.TxTrace) { tr.CodeLoads[0].InputLen = 4 },
		"CodeLoads.Depth":         func(tr *arch.TxTrace) { tr.CodeLoads[1].Depth = 5 },
		"CodeLoads.StepIndex":     func(tr *arch.TxTrace) { tr.CodeLoads[1].StepIndex = 3 },
		"GasUsed":                 func(tr *arch.TxTrace) { tr.GasUsed = 21000 },
	}
	for name, perturb := range ignored {
		tr := cloneTrace(base)
		perturb(tr)
		if !info.merged(pathHash(tr), tr) {
			t.Errorf("%s: a field the analyser never reads split the path", name)
		}
		if !reflect.DeepEqual(analyzeTrace(tr), analyzeTrace(base)) {
			t.Errorf("%s: the analyser reads a field the path does not hold", name)
		}
	}
}

// TestLearnedPathsAreCapped feeds one entry more distinct paths than it
// may remember: the list stops at the cap, paths within it are reused,
// and a path beyond it is analysed every time, as before the memo.
func TestLearnedPathsAreCapped(t *testing.T) {
	table := NewContractTable()
	variant := func(i int) *arch.TxTrace {
		tr := pathTrace()
		tr.Steps[6].PC = uint64(100 + i)
		return tr
	}
	var info *PathInfo
	for i := 0; i < maxLearnedPaths+3; i++ {
		info = table.Learn(variant(i))
	}
	if len(info.paths) != maxLearnedPaths {
		t.Fatalf("entry remembers %d paths, cap is %d", len(info.paths), maxLearnedPaths)
	}
	analyzed, reused := table.LearnCounts()
	if analyzed != maxLearnedPaths+3 || reused != 0 {
		t.Fatalf("analyzed %d reused %d after %d distinct paths", analyzed, reused, maxLearnedPaths+3)
	}

	table.Learn(variant(0)) // within the cap: recognised
	table.Learn(variant(maxLearnedPaths + 1))
	table.Learn(variant(maxLearnedPaths + 1)) // beyond it: analysed each time
	analyzed, reused = table.LearnCounts()
	if analyzed != maxLearnedPaths+5 || reused != 1 {
		t.Fatalf("analyzed %d reused %d, want %d and 1", analyzed, reused, maxLearnedPaths+5)
	}
	if got, want := info.Samples, maxLearnedPaths+6; got != want {
		t.Fatalf("samples %d, want %d", got, want)
	}
	if len(info.paths) != maxLearnedPaths {
		t.Fatalf("entry grew to %d paths past the cap", len(info.paths))
	}
}
