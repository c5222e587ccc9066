package workload

import (
	"fmt"

	"mtpu/internal/contracts"
	"mtpu/internal/state"
	"mtpu/internal/types"
)

// Stream generates a chained spec's blocks one at a time: one
// beginBlock for the whole stream, so nonces, balances and resource
// cursors carry across Next calls. It is not safe for concurrent use; a
// pipeline's single ingest producer pulls from it.
type Stream struct {
	spec    Spec
	gen     *Generator
	genesis *state.StateDB
	pairs   []*contracts.Contract
	oracle  *contracts.Contract
	// emit generates one block's n transactions.
	emit  func(n int) []*types.Transaction
	count int
	next  int
}

// OpenSource validates a chained spec, deploys and seeds any
// scenario-specific contracts on top of the standard genesis, and binds
// the kind's transaction emitter.
func (s Spec) OpenSource() (*Stream, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Blocks < 1 {
		return nil, fmt.Errorf("workload: %s is a single block; a stream needs at least one block", s)
	}
	g := NewGenerator(s.Seed, s.AccountPool())
	st := &Stream{spec: s, gen: g}
	// Extra contracts register before Genesis so DeployAll installs
	// them; their storage seeding runs on the genesis state afterwards,
	// exactly like the standard contracts' seeding inside Genesis.
	switch s.Kind {
	case "dex":
		for i := 0; i < dexPairs; i++ {
			p := contracts.NewDEXPair(i)
			st.pairs = append(st.pairs, p)
			g.AddContract(p)
		}
	case "oracle":
		st.oracle = contracts.NewPriceOracle()
		g.AddContract(st.oracle)
	}
	st.genesis = g.Genesis()
	switch s.Kind {
	case "dex":
		for _, p := range st.pairs {
			contracts.SeedRouter(st.genesis, p, g.accounts, seedTokenBalance, 1<<44)
		}
	case "oracle":
		contracts.SeedOracleFeeds(st.genesis, st.oracle, oracleFeeds, 1000)
	}
	// One beginBlock for the whole stream: nonces, balances and cursors
	// then carry across Next calls, producing a chained block sequence.
	g.beginBlock()
	st.bind()
	return st, nil
}

// Genesis returns the chain's pre-state: block 1 executes against it,
// and each later block against its predecessor's post-state (read-only;
// copy before mutating).
func (st *Stream) Genesis() *state.StateDB { return st.genesis }

// Next produces the chain's next block, or (nil, false) once Blocks
// blocks have been produced. Blocks are emitted without a conflict DAG:
// deriving it (along with traces and plans) is the prefetch/decode
// stage's job, exactly as a block arriving over the network would be
// handled.
func (st *Stream) Next() (*types.Block, bool) {
	if st.next >= st.spec.Blocks {
		return nil, false
	}
	header := st.gen.Header()
	header.Height += uint64(st.next)
	block := types.NewBlock(header, st.emit(st.spec.Txs))
	block.DAG = nil
	st.next++
	return block, true
}
