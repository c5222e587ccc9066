package hotspot

import (
	"mtpu/internal/arch"
	"mtpu/internal/evm"
	"mtpu/internal/types"
)

// LearnAnalyzingEveryTrace is Learn without the memo: every accepted
// trace runs the analyser and is merged. It is the reference the memo's
// exactness is tested against.
func (t *ContractTable) LearnAnalyzingEveryTrace(trace *arch.TxTrace) *PathInfo {
	if !trace.HasSelector || len(trace.Steps) == 0 {
		return nil
	}
	return t.analyze(Key{trace.Contract, trace.Selector}, trace)
}

// PathHash exposes the path hash so tests can tell two paths apart.
func PathHash(t *arch.TxTrace) uint64 { return pathHash(t) }

// RenumberCodeIDs returns a copy of a block's traces interned into one
// fresh symbol table that gives their code addresses other ids, as a
// later block's table would: an unrelated address takes id 1 and the
// traces' own addresses follow in reverse order of first appearance.
// Touch ids are interned again too.
func RenumberCodeIDs(block []*arch.TxTrace) []*arch.TxTrace {
	syms := arch.NewSymbolTable()
	syms.CodeID(types.HexToAddress("0x00000000000000000000000000000000000fee02"))
	var order []types.Address
	seen := make(map[types.Address]bool)
	for _, t := range block {
		for i := range t.Steps {
			if addr := t.Syms.CodeAddr(t.Steps[i].CodeID); !seen[addr] {
				seen[addr] = true
				order = append(order, addr)
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		syms.CodeID(order[i])
	}
	out := make([]*arch.TxTrace, len(block))
	for n, t := range block {
		c := *t
		c.Syms = syms
		c.Steps = make([]evm.Step, len(t.Steps))
		c.CodeLoads = append([]arch.CodeLoad(nil), t.CodeLoads...)
		for i, s := range t.Steps {
			code := t.Syms.CodeAddr(s.CodeID)
			var touch types.Address
			var slot types.Hash
			if s.TouchID != 0 {
				touch, slot = t.Syms.TouchKey(s.TouchID)
			}
			syms.Intern(&s, &code, &touch, &slot)
			c.Steps[i] = s
		}
		out[n] = &c
	}
	return out
}
