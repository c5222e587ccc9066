// Validator node: the deployment story of the paper — a node executes
// consecutive blocks of a chain on the MTPU, learning hotspot contracts
// in each idle block interval so the NEXT block runs faster. Prints
// per-block cycles and the throughput at the prototype's 300 MHz clock,
// and shows the first-block (cold Contract Table) vs steady-state gap.
//
//	go run ./examples/validator-node
package main

import (
	"fmt"
	"log"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

func main() {
	const (
		numBlocks   = 6
		txsPerBlock = 128
	)
	src, err := workload.Spec{Kind: "token", Blocks: numBlocks, Txs: txsPerBlock, Dep: 0.3, Seed: 2024, Accounts: 8192}.OpenSource()
	if err != nil {
		log.Fatal(err)
	}
	genesis := src.Genesis()
	var blocks []*types.Block
	for b, ok := src.Next(); ok; b, ok = src.Next() {
		blocks = append(blocks, b)
	}
	if err := workload.BuildChainDAG(genesis, blocks); err != nil {
		log.Fatal(err)
	}

	acc := core.New(arch.DefaultConfig())
	results, err := acc.ExecuteChain(genesis, blocks, core.ModeSTHotspot, 8)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("validator over %d blocks × %d txs (4 PUs, 300 MHz):\n\n", numBlocks, txsPerBlock)
	fmt.Printf("%-7s %-10s %-12s %-10s %s\n", "block", "cycles", "tx/s", "hit", "skipped")
	for i, r := range results {
		fmt.Printf("#%-6d %-10d %-12.0f %-10.2f %d\n",
			blocks[i].Header.Height, r.Cycles,
			core.TPS(txsPerBlock, r.Cycles, core.PrototypeClockHz),
			r.Pipeline.HitRatio(), r.SkippedInstructions)
	}

	cold := results[0].Cycles
	warm := results[numBlocks-1].Cycles
	fmt.Printf("\nblock #0 runs with a cold Contract Table; once the block-interval\n")
	fmt.Printf("profiling has seen the hotspots, the same workload takes %.0f%% of\n",
		100*float64(warm)/float64(cold))
	fmt.Printf("the cycles (%d → %d).\n", cold, warm)

	// Scalar reference for the end-to-end story.
	scalarAcc := core.New(arch.DefaultConfig())
	scalarResults, err := scalarAcc.ExecuteChain(genesis, blocks, core.ModeScalar, 0)
	if err != nil {
		log.Fatal(err)
	}
	var totalScalar, totalMTPU uint64
	for i := range results {
		totalScalar += scalarResults[i].Cycles
		totalMTPU += results[i].Cycles
	}
	fmt.Printf("\nchain throughput: %.0f tx/s scalar → %.0f tx/s MTPU (%.2fx)\n",
		core.TPS(numBlocks*txsPerBlock, totalScalar, core.PrototypeClockHz),
		core.TPS(numBlocks*txsPerBlock, totalMTPU, core.PrototypeClockHz),
		float64(totalScalar)/float64(totalMTPU))
}
