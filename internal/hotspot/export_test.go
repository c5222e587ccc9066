package hotspot

import "mtpu/internal/arch"

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
