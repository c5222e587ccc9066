package difftest

import "mtpu/internal/engine"

// Shrink reduces a failing spec to a minimal one that still fails on
// the same engine: first ddmin over a single block's transaction set
// (recorded as workload drop indices, so the reproducer regenerates
// byte-identically) or a chain's length, then a greedy pass over the
// architectural dimensions (PU count, candidate window, account pool). Only the originally-failing engine is
// re-run, so shrinking a single divergence never costs a full sweep per
// probe. The failure the caller holds is returned unchanged if nothing
// smaller still fails.
func (h *Harness) Shrink(f Failure) Spec {
	probe := &Harness{Modes: []engine.Mode{f.Mode}, Mutate: h.Mutate}
	fails := func(s Spec) bool {
		fs, err := probe.Run(s)
		// A spec the generator or the sequential oracle rejects is not a
		// reproducer — the divergence under reduction is the engine's.
		return err == nil && len(fs) > 0
	}

	spec := f.Spec
	if spec.Workload.Blocks == 0 {
		spec = shrinkTxs(spec, fails)
	}
	// Chained specs have no per-transaction drop encoding; shrink the
	// chain length instead.
	for spec.Workload.Blocks > 1 {
		s := spec
		s.Workload.Blocks--
		if !fails(s) {
			break
		}
		spec = s
	}
	return shrinkDims(spec, fails)
}

// shrinkTxs ddmins the kept-transaction set.
func shrinkTxs(spec Spec, fails func(Spec) bool) Spec {
	dropped := make(map[int]bool, len(spec.Workload.Drop))
	for _, d := range spec.Workload.Drop {
		dropped[d] = true
	}
	kept := make([]int, 0, spec.Workload.Txs)
	for i := 0; i < spec.Workload.Txs; i++ {
		if !dropped[i] {
			kept = append(kept, i)
		}
	}

	withKept := func(keep []int) Spec {
		s := spec
		inKeep := make(map[int]bool, len(keep))
		for _, k := range keep {
			inKeep[k] = true
		}
		s.Workload.Drop = nil
		for i := 0; i < s.Workload.Txs; i++ {
			if !inKeep[i] {
				s.Workload.Drop = append(s.Workload.Drop, i)
			}
		}
		return s
	}

	kept = ddmin(kept, func(keep []int) bool {
		if len(keep) == 0 {
			return false
		}
		return fails(withKept(keep))
	})
	return withKept(kept)
}

// ddmin is Zeller's delta-debugging minimization over index sets: try
// removing ever-finer chunks, keeping any reduction that still fails.
func ddmin(items []int, fails func([]int) bool) []int {
	n := 2
	for len(items) >= 2 {
		chunk := (len(items) + n - 1) / n
		reduced := false
		for lo := 0; lo < len(items); lo += chunk {
			hi := lo + chunk
			if hi > len(items) {
				hi = len(items)
			}
			complement := make([]int, 0, len(items)-(hi-lo))
			complement = append(complement, items[:lo]...)
			complement = append(complement, items[hi:]...)
			if fails(complement) {
				items = complement
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(items) {
				break
			}
			n *= 2
			if n > len(items) {
				n = len(items)
			}
		}
	}
	return items
}

// shrinkDims greedily lowers the architectural dimensions while the
// failure persists: the smallest failing PU count, then the smallest
// failing candidate window, then the tightest account pool. Each
// dimension is independent, so a plain first-failing scan suffices.
func shrinkDims(spec Spec, fails func(Spec) bool) Spec {
	for _, pus := range []int{1, 2} {
		if spec.PUs != 0 && pus >= spec.PUs {
			break
		}
		s := spec
		s.PUs = pus
		if fails(s) {
			spec = s
			break
		}
	}
	for _, w := range []int{1, 2} {
		if spec.Window != 0 && w >= spec.Window {
			break
		}
		s := spec
		s.Window = w
		if fails(s) {
			spec = s
			break
		}
	}
	for _, acc := range []int{8, 32} {
		if acc >= spec.Workload.AccountPool() {
			break
		}
		s := spec
		s.Workload.Accounts = acc
		if fails(s) {
			spec = s
			break
		}
	}
	return spec
}
