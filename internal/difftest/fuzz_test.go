package difftest

import (
	"path/filepath"
	"testing"

	"mtpu/internal/workload"
)

// fuzzSpec maps the fuzzer's primitive arguments onto a bounded Spec.
// Every input folds into some valid spec, so the whole input space
// exercises engines instead of the validator. scen % 11 >= 6 switches
// the spec to a chained Zipfian scenario stream (5 of 11 values, one
// per scenario); otherwise blocks >= 2 switches it to a chained token
// stream, and 0 and 1 keep the single-block shape.
func fuzzSpec(seed int64, kind, txs, depPct, pus, window uint8, dbLines uint16, minLine, blocks, scen uint8) Spec {
	if sc := int(scen) % 11; sc >= 6 {
		return Spec{
			Workload: workload.Spec{
				Kind:   workload.Scenarios[sc-6],
				Blocks: 2 + int(blocks)%3,
				Txs:    1 + int(txs)%10,
				Skew:   float64(int(depPct)%161) / 80, // [0, 2]
				Seed:   seed,
			},
			PUs:    1 + int(pus)%8,
			Window: int(window) % 17,
		}
	}
	if n := int(blocks) % 5; n >= 2 {
		return Spec{
			Workload: workload.Spec{
				Kind:   "token",
				Blocks: n,
				Txs:    1 + int(txs)%12,
				Dep:    float64(int(depPct)%101) / 100,
				Seed:   seed,
			},
			PUs:    1 + int(pus)%8,
			Window: int(window) % 17,
		}
	}
	k := workload.SpecKinds[int(kind)%len(workload.SpecKinds)]
	w := workload.Spec{
		Kind: k,
		Txs:  1 + int(txs)%16,
		Seed: seed,
	}
	switch k {
	case "token", "mixed":
		w.Dep = float64(int(depPct)%101) / 100
	case "sct", "erc20":
		w.Share = float64(int(depPct)%101) / 100
	case "batch":
		contracts := []string{"TetherUSD", "Dai", "WETH9", "UniswapV2Router02"}
		w.Contract = contracts[int(depPct)%len(contracts)]
	}
	lines := int(dbLines % 66)
	if lines == 65 {
		lines = -1 // the unbounded-cache encoding
	}
	return Spec{
		Workload: w,
		PUs:      1 + int(pus)%8,
		Window:   int(window) % 17,
		DBLines:  lines,
		MinLine:  int(minLine) % 9,
	}
}

// FuzzDiffEngines fuzzes every registered engine against the sequential
// oracle, seeded from the corner corpus. Any failure is a real
// divergence: the input mapping never produces an invalid spec.
func FuzzDiffEngines(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(7), uint8(50), uint8(3), uint8(8), uint16(0), uint8(0), uint8(0), uint8(0))
	// A chained seed so the stream shape is in the corpus from the start.
	f.Add(int64(9), uint8(0), uint8(11), uint8(40), uint8(3), uint8(0), uint16(0), uint8(0), uint8(3), uint8(0))
	// A scenario seed (scen 8 → nft-mint) so the Zipfian scenario shapes
	// are in the corpus from the start too.
	f.Add(int64(17), uint8(0), uint8(9), uint8(96), uint8(3), uint8(4), uint16(0), uint8(0), uint8(1), uint8(8))
	seeds, err := CorpusSpecs(filepath.Join("testdata", "corpus"))
	if err != nil {
		f.Fatal(err)
	}
	kindIndex := map[string]uint8{}
	for i, k := range workload.SpecKinds {
		kindIndex[k] = uint8(i)
	}
	for _, s := range seeds {
		lines := uint16(0)
		switch {
		case s.DBLines > 0:
			lines = uint16(s.DBLines % 65)
		case s.DBLines == -1:
			lines = 65
		}
		f.Add(s.Workload.Seed, kindIndex[s.Workload.Kind], uint8(s.Workload.Txs-1),
			uint8(s.Workload.Dep*100), uint8(s.PUs-1), uint8(s.Window), lines, uint8(s.MinLine), uint8(0), uint8(0))
	}

	h := &Harness{}
	f.Fuzz(func(t *testing.T, seed int64, kind, txs, depPct, pus, window uint8, dbLines uint16, minLine, blocks, scen uint8) {
		spec := fuzzSpec(seed, kind, txs, depPct, pus, window, dbLines, minLine, blocks, scen)
		fails, err := h.Run(spec)
		if err != nil {
			t.Fatalf("harness error on %s: %v", spec, err)
		}
		for _, fail := range fails {
			t.Errorf("%v", fail)
		}
	})
}
