// The comparison point of §4.4 (Tables 8 and 9): an analytical model of
// BPU (Lu & Peng, DAC'20), the first dedicated smart-contract
// accelerator. BPU couples a GSC engine that executes general contracts
// at roughly scalar-EVM speed with an App engine whose dedicated ERC-20
// dataflow achieves a large fixed speedup — published as 12.82× on
// pure-ERC-20 blocks (Table 8) — and parallelizes across engines with
// block-level (barrier) scheduling only.

package experiments

import (
	"mtpu/internal/arch"
	"mtpu/internal/arch/pipeline"
	"mtpu/internal/arch/pu"
	"mtpu/internal/sched"
	"mtpu/internal/types"
)

// bpuAppSpeedup is BPU's published acceleration for ERC-20 transfers
// over its own GSC engine (Table 8, 100% column).
const bpuAppSpeedup = 12.82

// bpuModel models the accelerator: per-transaction cost is the scalar GSC
// cost, divided by bpuAppSpeedup when the App engine handles it.
type bpuModel struct {
	cfg    arch.Config
	engine []*pu.PU
	plans  []*pu.Plan
	// appEligible marks transactions routed to the App engine.
	appEligible []bool
}

// newBPU builds a BPU with numEngines GSC engines over the given traces.
// isERC20 flags the transactions the App engine accelerates.
func newBPU(numEngines int, traces []*arch.TxTrace, isERC20 []bool) *bpuModel {
	cfg := arch.ScalarConfig()
	cfg.NumPUs = numEngines
	b := &bpuModel{cfg: cfg, appEligible: isERC20}
	for i := 0; i < numEngines; i++ {
		b.engine = append(b.engine, pu.New(i, cfg))
	}
	for _, t := range traces {
		b.plans = append(b.plans, pu.PlainPlan(t))
	}
	return b
}

// Dispatch implements sched.Engine.
func (b *bpuModel) Dispatch(p, tx int) uint64 {
	cost := b.engine[p].Run(b.plans[tx], pipeline.FlatMem{Cfg: b.cfg}).Total
	if b.appEligible[tx] {
		cost = uint64(float64(cost)/bpuAppSpeedup + 0.5)
		if cost == 0 {
			cost = 1
		}
	}
	return cost
}

// RunSequential executes all transactions on one engine.
func (b *bpuModel) RunSequential(n int) sched.Result {
	return sched.Sequential(n, b)
}

// RunSynchronous executes the block with BPU's coarse block-level
// parallelism: barrier rounds across the engines.
func (b *bpuModel) RunSynchronous(dag *types.DAG) sched.Result {
	return sched.Synchronous(dag, b.cfg.NumPUs, 0, b)
}

// erc20Flags marks transactions whose callee and selector the App engine
// handles (the ERC-20 transfer/approve/transferFrom dataflow).
func erc20Flags(txs []*types.Transaction, erc20 map[types.Address]bool, selectors map[[4]byte]bool) []bool {
	out := make([]bool, len(txs))
	for i, tx := range txs {
		if tx.To == nil || !erc20[*tx.To] {
			continue
		}
		sel, ok := tx.Selector()
		if !ok {
			continue
		}
		out[i] = selectors[sel]
	}
	return out
}
