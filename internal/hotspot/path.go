package hotspot

import (
	"encoding/binary"

	"mtpu/internal/arch"
	"mtpu/internal/evm"
	"mtpu/internal/types"
)

// The learn memo. Transactions of one (contract, entry function) follow
// almost the same execution path (§3.4.1), so nearly every trace Learn
// is offered repeats a path it has analysed before. analyzeTrace is a
// pure function of the fields pathStep and pathLoad hold, and Learn's
// merge is min / set-intersection / max: merging an analysis a second
// time changes nothing, whatever was merged in between (the minimum is
// already at or below it, the intersections already inside it, the
// maxima already at or above it). So a trace whose path an entry has
// merged before only needs its sample counted. An entry loaded from
// persisted JSON remembers no paths and refills on first sight.

// maxLearnedPaths bounds the paths one entry remembers. Beyond it Learn
// analyses every unknown path again, so a contract whose loops depend on
// its input cannot grow the table without bound.
const maxLearnedPaths = 8

// pathStep is exactly what analyzeTrace reads of one evm.Step, with the
// code id resolved to its address: ids are per block, but the Contract
// Table outlives blocks.
type pathStep struct {
	pc        uint64
	memOffset uint64
	memBytes  uint64
	depth     int
	codeAddr  types.Address
	op        evm.Opcode
	taken     bool
}

func pathStepOf(s *evm.Step, syms *arch.SymbolTable) pathStep {
	return pathStep{
		pc:        s.PC,
		memOffset: s.MemOffset,
		memBytes:  s.MemBytes,
		depth:     s.Depth,
		codeAddr:  syms.CodeAddr(s.CodeID),
		op:        s.Op,
		taken:     s.BranchTaken,
	}
}

// pathLoad is exactly what analyzeTrace reads of one arch.CodeLoad.
type pathLoad struct {
	addr      types.Address
	codeBytes int
}

func pathLoadOf(cl *arch.CodeLoad) pathLoad {
	return pathLoad{addr: cl.Addr, codeBytes: cl.CodeBytes}
}

// learnedPath is one execution path already merged into an entry: its
// hash, to reject most other paths in one compare, and the path itself,
// because only equality of every field proves a repeat.
type learnedPath struct {
	hash  uint64
	steps []pathStep
	loads []pathLoad
}

func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// addrWord folds an address to one word; each part is scaled by its own
// odd constant, so changing any one part changes the word.
func addrWord(a *types.Address) uint64 {
	return binary.LittleEndian.Uint64(a[0:8])*0xbf58476d1ce4e5b9 ^
		binary.LittleEndian.Uint64(a[8:16])*0x94d049bb133111eb ^
		uint64(binary.LittleEndian.Uint32(a[16:20]))*0xd6e8feb86659fd93
}

// pathHash hashes the fields of pathStep and pathLoad over the trace.
// The fields of one step are scaled independently and folded into the
// running hash with a single dependent multiply, which is what keeps a
// warm Learn cheap: the chain of dependent multiplies is one per step.
// A step's code is hashed by its address, folded again only when the
// code id changes, never by the id itself.
func pathHash(t *arch.TxTrace) uint64 {
	h := mix(uint64(len(t.Steps)), uint64(len(t.CodeLoads)))
	var id uint32
	var code uint64
	for i := range t.Steps {
		s := &t.Steps[i]
		if s.CodeID != id {
			addr := t.Syms.CodeAddr(s.CodeID)
			id, code = s.CodeID, addrWord(&addr)
		}
		flags := uint64(s.Depth)<<9 | uint64(s.Op)<<1
		if s.BranchTaken {
			flags |= 1
		}
		h = mix(h, s.PC*0xff51afd7ed558ccd^flags*0xc4ceb9fe1a85ec53^
			s.MemOffset*0x2545f4914f6cdd1d^s.MemBytes*0x9fb21c651e98df25^code)
	}
	for i := range t.CodeLoads {
		cl := &t.CodeLoads[i]
		h = mix(h, uint64(cl.CodeBytes)*0xff51afd7ed558ccd^addrWord(&cl.Addr))
	}
	return h
}

// merged reports whether the entry has already merged the trace's path.
// hash only narrows the candidates; a hit is a full comparison.
func (info *PathInfo) merged(hash uint64, t *arch.TxTrace) bool {
	for i := range info.paths {
		p := &info.paths[i]
		if p.hash == hash && p.equals(t) {
			return true
		}
	}
	return false
}

func (p *learnedPath) equals(t *arch.TxTrace) bool {
	if len(p.steps) != len(t.Steps) || len(p.loads) != len(t.CodeLoads) {
		return false
	}
	for i := range p.steps {
		if p.steps[i] != pathStepOf(&t.Steps[i], t.Syms) {
			return false
		}
	}
	for i := range p.loads {
		if p.loads[i] != pathLoadOf(&t.CodeLoads[i]) {
			return false
		}
	}
	return true
}

// remember records the trace's path as merged, up to maxLearnedPaths.
func (info *PathInfo) remember(hash uint64, t *arch.TxTrace) {
	if len(info.paths) >= maxLearnedPaths {
		return
	}
	p := learnedPath{
		hash:  hash,
		steps: make([]pathStep, len(t.Steps)),
		loads: make([]pathLoad, len(t.CodeLoads)),
	}
	for i := range t.Steps {
		p.steps[i] = pathStepOf(&t.Steps[i], t.Syms)
	}
	for i := range t.CodeLoads {
		p.loads[i] = pathLoadOf(&t.CodeLoads[i])
	}
	info.paths = append(info.paths, p)
}
