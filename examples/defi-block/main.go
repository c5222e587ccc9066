// DeFi block: a mixed workload across all eight archetypes — AMM swaps,
// marketplace buys, bridge withdrawals, votes, auction bids and token
// transfers — with a real dependency DAG. Prints the DAG structure and
// the per-PU dispatch timeline of the spatio-temporal scheduler.
//
//	go run ./examples/defi-block
package main

import (
	"fmt"
	"log"
	"sort"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/mvstate"
	"mtpu/internal/workload"
)

func main() {
	gen := workload.NewGenerator(99, 2048)
	genesis := gen.Genesis()
	block := gen.MixedBlock(48, 0.4)
	if _, err := workload.BuildDAG(genesis, block); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("mixed block: %d txs, dependent ratio %.2f, critical path %d\n\n",
		len(block.Transactions), block.DAG.DependentRatio(), block.DAG.CriticalPathLen())

	// Show the DAG edges.
	edges := 0
	for j, deps := range block.DAG.Deps {
		for _, d := range deps {
			fmt.Printf("  T%-3d → T%-3d", d, j)
			edges++
			if edges%4 == 0 {
				fmt.Println()
			}
		}
	}
	if edges%4 != 0 {
		fmt.Println()
	}
	fmt.Printf("  (%d dependency edges)\n\n", edges)

	traces, receipts, digest, err := core.CollectTraces(genesis, block)
	if err != nil {
		log.Fatal(err)
	}
	acc := core.New(arch.DefaultConfig())
	acc.LearnHotspots(traces, 8)

	res, err := acc.Replay(block, traces, receipts, digest, core.ModeSTHotspot)
	if err != nil {
		log.Fatal(err)
	}

	// Per-PU timeline.
	byPU := map[int][]int{}
	starts := map[int]uint64{}
	for i, d := range res.Sched.Dispatches {
		byPU[d.PU] = append(byPU[d.PU], i)
		starts[i] = d.Start
	}
	fmt.Println("spatio-temporal dispatch timeline:")
	for pu := 0; pu < acc.Cfg.NumPUs; pu++ {
		idxs := byPU[pu]
		sort.Slice(idxs, func(a, b int) bool { return starts[idxs[a]] < starts[idxs[b]] })
		fmt.Printf("  PU%d:", pu)
		for _, i := range idxs {
			d := res.Sched.Dispatches[i]
			fmt.Printf(" T%d[%d..%d]", d.Tx, d.Start, d.End)
		}
		fmt.Println()
	}
	fmt.Printf("\nmakespan %d cycles, utilization %.2f, %d redundancy-steered picks\n",
		res.Cycles, res.Utilization, res.Sched.RedundantSteers)

	if err := core.VerifyScheduleAt(mvstate.NewStore(genesis, nil).Head(), block, res); err != nil {
		log.Fatal(err)
	}
	fmt.Println("schedule verified serializable ✔")
}
