package workload

import "mtpu/internal/types"

// Scenarios lists every recognizable traffic shape the scenario
// generator produces. Each one is a chained Spec kind (like the token
// chain) whose account and contract popularity follows a Zipf(s)
// distribution — the mainnet-shaped corpus of ROADMAP item 3:
//
//	erc20-mix  transfers across the four token archetypes, Zipfian
//	           senders/recipients and token choice: hot accounts chain
//	           through nonces and balance slots.
//	dex        constant-product swaps over dexPairs AMM pairs with a
//	           Zipf-hot pair: every swap reads and writes both reserves,
//	           so the hot pair serializes — where optimistic execution
//	           is predicted to collapse.
//	nft-mint   a mint storm on the single OpenSea contract: pairwise
//	           independent mints from Zipfian senders plus read-only
//	           window shopping — the hotspot optimization's home turf.
//	airdrop    fan-outs from a handful of distributor accounts
//	           (batchTransfer3 and single transfers): per-distributor
//	           nonce chains make high skew near-sequential.
//	oracle     price-feed contention on the PriceOracle contract: a few
//	           posters submit to Zipf-hot feeds while Zipfian consumers
//	           read them, yielding hot read-write conflict chains.
var Scenarios = []string{"erc20-mix", "dex", "nft-mint", "airdrop", "oracle"}

// Shape parameters of the scenario generators. They are constants, not
// spec knobs: the spec's Skew moves the mass across these fixed pools.
const (
	// dexPairs is how many AMM pair contracts the dex scenario deploys.
	dexPairs = 8
	// airdropDistributors is the sender-pool size of the airdrop fan-out.
	airdropDistributors = 8
	// oracleFeeds and oraclePosters size the oracle scenario's feed and
	// submitter pools.
	oracleFeeds   = 16
	oraclePosters = 8
)

// bind installs the kind's transaction emitter. The token chain's
// emitter generates a whole block of dependent-ratio transfers (its
// dependency chains restart every block); a scenario's emits
// transactions one at a time. All Zipf CDFs are built here once;
// sampling draws only on the generator's seeded rng, so the stream is a
// pure function of the spec.
func (st *Stream) bind() {
	g := st.gen
	if st.spec.Kind == "token" {
		st.emit = func(n int) []*types.Transaction { return g.tokenTxs(n, st.spec.Dep) }
		return
	}
	var emit func() *types.Transaction
	st.emit = func(n int) []*types.Transaction {
		txs := make([]*types.Transaction, 0, n)
		for i := 0; i < n; i++ {
			txs = append(txs, emit())
		}
		return txs
	}
	zAcct := newZipf(len(g.accounts), st.spec.Skew)
	// account draws a Zipf-ranked account; hot rank 0 is g.accounts[0].
	account := func() types.Address { return g.accounts[zAcct.sample(g.rng)] }
	// tail returns the i-th account from the end of the pool — small
	// fixed roles (distributors, posters) that must not collide with
	// the Zipf-hot low ranks.
	tail := func(i int) types.Address { return g.accounts[len(g.accounts)-1-i] }

	switch st.spec.Kind {
	case "erc20-mix":
		zTok := newZipf(len(tokenNames), st.spec.Skew)
		emit = func() *types.Transaction {
			token := g.Contract(tokenNames[zTok.sample(g.rng)])
			from := account()
			ti := zAcct.sample(g.rng)
			if g.accounts[ti] == from {
				ti = (ti + 1) % len(g.accounts)
			}
			return g.call(from, token, 0, "transfer", g.accounts[ti], uint64(10))
		}

	case "dex":
		zPair := newZipf(dexPairs, st.spec.Skew)
		emit = func() *types.Transaction {
			pair := st.pairs[zPair.sample(g.rng)]
			from := account()
			st.count++
			if st.count%8 == 0 {
				return g.call(from, pair, 0, "addLiquidity", uint64(500), uint64(500))
			}
			fn := "swap0For1"
			if g.rng.Intn(2) == 1 {
				fn = "swap1For0"
			}
			return g.call(from, pair, 0, fn, uint64(100+g.rng.Intn(900)))
		}

	case "nft-mint":
		market := g.Contract("OpenSea")
		emit = func() *types.Transaction {
			from := account()
			st.count++
			if st.count%7 == 0 {
				// Read-only window shopping between mints.
				return g.call(from, market, 0, "ownerOf", uint64(1+g.rng.Intn(512)))
			}
			id := g.nextMintID
			g.nextMintID++
			return g.call(from, market, 0, "mintItem", id)
		}

	case "airdrop":
		zDist := newZipf(airdropDistributors, st.spec.Skew)
		zTok := newZipf(len(tokenNames), st.spec.Skew)
		emit = func() *types.Transaction {
			from := tail(zDist.sample(g.rng))
			token := g.Contract(tokenNames[zTok.sample(g.rng)])
			if g.rng.Float64() < 0.7 {
				return g.call(from, token, 0, "batchTransfer3",
					account(), account(), account(), uint64(5))
			}
			return g.call(from, token, 0, "transfer", account(), uint64(10))
		}

	case "oracle":
		zFeed := newZipf(oracleFeeds, st.spec.Skew)
		zPoster := newZipf(oraclePosters, st.spec.Skew)
		emit = func() *types.Transaction {
			feed := uint64(zFeed.sample(g.rng))
			if g.rng.Float64() < 0.3 {
				return g.call(tail(zPoster.sample(g.rng)), st.oracle, 0,
					"submit", feed, uint64(900+g.rng.Intn(200)))
			}
			return g.call(account(), st.oracle, 0, "consume", feed)
		}
	}
}
