// Hotspot lab: a walkthrough of the §3.4 offline optimization. Profiles
// Tether transfer, prints the chunk boundaries the analyzer found, the
// instructions eliminated by constant backtracking, the prefetchable
// storage reads, and the bytecode-loading reduction — then shows the
// cycle difference on a single PU.
//
//	go run ./examples/hotspot-lab
package main

import (
	"fmt"
	"log"

	"mtpu/internal/arch"
	"mtpu/internal/arch/pipeline"
	"mtpu/internal/arch/pu"
	"mtpu/internal/core"
	"mtpu/internal/hotspot"
	"mtpu/internal/workload"
)

func main() {
	gen := workload.NewGenerator(5, 512)
	genesis := gen.Genesis()
	tether := gen.Contract("TetherUSD")

	block := gen.Batch(tether, 12)
	traces, _, _, err := core.CollectTraces(genesis, block)
	if err != nil {
		log.Fatal(err)
	}

	table := hotspot.NewContractTable()
	for _, tr := range traces {
		table.Learn(tr)
	}
	fmt.Printf("Contract Table: %d (contract, function) entries\n\n", table.Len())

	// Pick a transfer trace and inspect its optimization plan.
	var transfer = tether.Function("transfer")
	for _, tr := range traces {
		if !tr.HasSelector || tr.Selector != transfer.Selector {
			continue
		}
		info := table.Lookup(tr.Contract, tr.Selector)
		plan := table.Plan(tr)

		fmt.Printf("TetherUSD.transfer — %d executed instructions\n", len(tr.Steps))
		fmt.Printf("  Compare+Check chunks pre-executed: first %d steps\n", info.PreExecLen)
		fmt.Printf("  eliminated by constant backtracking: %d more\n",
			plan.SkippedInstructions-info.PreExecLen)
		fmt.Printf("  issued at execution time: %d (%.1f%% of original)\n",
			len(plan.Steps), 100*float64(len(plan.Steps))/float64(len(tr.Steps)))
		fmt.Printf("  bytecode loaded: %.1f%% of %d bytes (chunked loading)\n",
			100*info.LoadFractionOf(tr.Contract), len(tether.Code))

		pref, slTotal := 0, 0
		for i := range plan.Steps {
			if plan.Steps[i].Op.String() == "SLOAD" {
				slTotal++
				if i < len(plan.Ann) && plan.Ann[i].Prefetched {
					pref++
				}
			}
		}
		fmt.Printf("  prefetched SLOADs: %d of %d\n\n", pref, slTotal)

		// Single-PU cycle comparison, warm caches.
		cfg := arch.DefaultConfig()
		run := func(p *pu.Plan) uint64 {
			unit := pu.New(0, cfg)
			mem := pipeline.FlatMem{Cfg: cfg}
			unit.Run(p, mem) // warm
			return unit.Run(p, mem).Total
		}
		plain := run(pu.PlainPlan(tr))
		opt := run(plan)
		fmt.Printf("  warm PU cycles: %d plain → %d optimized (%.2fx)\n",
			plain, opt, float64(plain)/float64(opt))
		return
	}
	log.Fatal("no transfer transaction in batch")
}
