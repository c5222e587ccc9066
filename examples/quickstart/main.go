// Quickstart: deploy an ERC-20 token, execute transfers through the EVM,
// then run a small block through the MTPU accelerator and compare the
// sequential baseline with the full co-design.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mtpu/internal/arch"
	"mtpu/internal/contracts"
	"mtpu/internal/core"
	"mtpu/internal/evm"
	"mtpu/internal/mvstate"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
	"mtpu/internal/workload"
)

func main() {
	// --- 1. A world state with a deployed token. ---
	st := state.New()
	tether := contracts.NewTether()
	tether.Setup(st)

	alice := types.HexToAddress("0xa11ce00000000000000000000000000000000001")
	bob := types.HexToAddress("0xb0b0000000000000000000000000000000000002")
	funds := uint256.MustFromDecimal("1000000000000000000") // 1 ether for fees
	st.SetBalance(alice, funds)
	st.SetBalance(contracts.TokenOwner, funds)

	// --- 2. Call the contract directly through the EVM. ---
	e := evm.New(evm.BlockContext{Number: 1, GasLimit: 30_000_000}, st)

	mustCall(e, contracts.TokenOwner, tether, "issue", uint64(1_000_000))
	mustCall(e, contracts.TokenOwner, tether, "transfer", alice, uint64(500))
	mustCall(e, alice, tether, "transfer", bob, uint64(123))

	ret := mustCall(e, bob, tether, "balanceOf", bob)
	fmt.Printf("balanceOf(bob) = %s\n", contracts.DecodeWord(ret, 0))
	ret = mustCall(e, bob, tether, "balanceOf", alice)
	fmt.Printf("balanceOf(alice) = %s\n\n", contracts.DecodeWord(ret, 0))

	// --- 3. Run a synthetic block on the simulated MTPU. ---
	gen := workload.NewGenerator(7, 512)
	genesis := gen.Genesis()
	block := gen.TokenBlock(96, 0.25)
	if _, err := workload.BuildDAG(genesis, block); err != nil {
		log.Fatal(err)
	}

	acc := core.New(arch.DefaultConfig())
	traces, receipts, digest, err := core.CollectTraces(genesis, block)
	if err != nil {
		log.Fatal(err)
	}
	acc.LearnHotspots(traces, 8)

	seq, err := acc.Replay(block, traces, receipts, digest, core.ModeScalar)
	if err != nil {
		log.Fatal(err)
	}
	fast, err := acc.Replay(block, traces, receipts, digest, core.ModeSTHotspot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block of %d txs (dependent ratio %.2f):\n",
		len(block.Transactions), block.DAG.DependentRatio())
	fmt.Printf("  scalar single PU:  %8d cycles\n", seq.Cycles)
	fmt.Printf("  full MTPU (4 PUs): %8d cycles  → %.2fx speedup\n",
		fast.Cycles, float64(seq.Cycles)/float64(fast.Cycles))

	if err := core.VerifyScheduleAt(mvstate.NewStore(genesis, nil).Head(), block, fast); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  parallel schedule verified serializable ✔")
}

func mustCall(e *evm.EVM, from types.Address, c *contracts.Contract, fn string, args ...any) []byte {
	input := contracts.EncodeCall(c.Function(fn), args...)
	ret, _, err := e.Call(from, c.Address, input, 1_000_000, new(uint256.Int))
	if err != nil {
		log.Fatalf("%s.%s: %v", c.Name, fn, err)
	}
	return ret
}
