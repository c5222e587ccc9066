// Package workload synthesizes blocks with the knobs the paper's
// evaluation sweeps: the dependent-transaction ratio (Figs. 14-16,
// Table 9), the ERC-20 share (Table 8), hotspot skew (TOP-N contracts
// receiving most invocations, §2.2.1), and per-contract batches running
// through all entry functions (Fig. 12/13, Table 7). Blocks carry the
// dependency DAG the consensus stage would have attached, derived from
// the transactions' actual recorded read/write sets.
package workload

import (
	"fmt"
	"math/rand"

	"mtpu/internal/contracts"
	"mtpu/internal/evm"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// BlockNumber is the header height generated blocks carry.
const BlockNumber = 1000

// Coinbase receives fees; its balance is excluded from conflict analysis
// (fee crediting is commutative and handled specially by real systems).
var Coinbase = types.HexToAddress("0x00000000000000000000000000000000000000fe")

// seedTokenBalance is the per-account genesis balance on every token.
const seedTokenBalance = 1 << 40

// Generator produces deterministic synthetic workloads.
type Generator struct {
	rng      *rand.Rand
	accounts []types.Address
	nonces   map[types.Address]uint64

	Contracts []*contracts.Contract
	byName    map[string]*contracts.Contract

	// Bookkeeping so generated transactions always succeed.
	nextFresh    int
	gatewayNonce uint64
	nextListing  int
	listings     []uint64
	nextVoter    int
	auctionBids  map[uint64]uint64
	auctions     []uint64
	nextMintID   uint64
	nextAuction  int
	approved     map[[2]types.Address]bool
}

// NewGenerator builds a generator over numAccounts funded accounts.
func NewGenerator(seed int64, numAccounts int) *Generator {
	g := &Generator{
		rng:         rand.New(rand.NewSource(seed)),
		nonces:      make(map[types.Address]uint64),
		Contracts:   contracts.All(),
		byName:      make(map[string]*contracts.Contract),
		auctionBids: make(map[uint64]uint64),
		nextMintID:  1 << 20,
		approved:    make(map[[2]types.Address]bool),
	}
	for _, c := range g.Contracts {
		g.byName[c.Name] = c
	}
	for i := 0; i < numAccounts; i++ {
		g.accounts = append(g.accounts, accountAddr(i))
	}
	for i := uint64(1); i <= 512; i++ {
		g.listings = append(g.listings, i)
		g.auctions = append(g.auctions, i)
		g.auctionBids[i] = 100
	}
	return g
}

func accountAddr(i int) types.Address {
	var b [20]byte
	b[0] = 0xAC
	b[16] = byte(i >> 24)
	b[17] = byte(i >> 16)
	b[18] = byte(i >> 8)
	b[19] = byte(i)
	return types.Address(b)
}

// beginBlock resets per-block bookkeeping: every generated block is
// self-contained and executes against a fresh copy of Genesis, so nonces
// and resource cursors restart from the genesis state.
func (g *Generator) beginBlock() {
	g.nonces = make(map[types.Address]uint64)
	g.nextFresh = 0
	g.nextVoter = 0
	g.nextListing = 0
	g.gatewayNonce = 0
	g.nextMintID = 1 << 20
	g.nextAuction = 0
	g.approved = make(map[[2]types.Address]bool)
	for i := uint64(1); i <= 512; i++ {
		g.auctionBids[i] = 100
	}
}

// AddContract registers an extra contract beyond the standard set, so
// Genesis deploys it and Contract resolves it by name. It must be
// called before Genesis.
func (g *Generator) AddContract(c *contracts.Contract) {
	if _, dup := g.byName[c.Name]; dup {
		panic("workload: duplicate contract " + c.Name)
	}
	g.Contracts = append(g.Contracts, c)
	g.byName[c.Name] = c
}

// Contract returns a named contract from the generator's set.
func (g *Generator) Contract(name string) *contracts.Contract {
	c := g.byName[name]
	if c == nil {
		panic("workload: unknown contract " + name)
	}
	return c
}

// Genesis deploys every contract and seeds balances, listings, reserves,
// deposits and auctions so any generated transaction can succeed.
func (g *Generator) Genesis() *state.StateDB {
	st := state.New()
	contracts.DeployAll(st, g.Contracts)

	ether := uint256.MustFromDecimal("1000000000000000000000000")
	for _, a := range g.accounts {
		st.SetBalance(a, ether)
	}
	st.SetBalance(contracts.TokenOwner, ether)
	st.DiscardJournal()

	amount := uint256.NewInt(seedTokenBalance)
	for _, name := range []string{"TetherUSD", "Dai", "LinkToken", "FiatTokenProxy"} {
		contracts.SeedBalances(st, g.Contract(name), g.accounts, amount)
	}
	contracts.SeedWETH(st, g.Contract("WETH9"), g.accounts, seedTokenBalance)
	contracts.SeedRouter(st, g.Contract("UniswapV2Router02"), g.accounts, seedTokenBalance, 1<<44)
	contracts.SeedRouter(st, g.Contract("SwapRouter"), g.accounts, seedTokenBalance, 1<<44)
	contracts.SeedGatewayDeposits(st, g.Contract("MainchainGatewayProxy"), g.accounts, seedTokenBalance)
	contracts.SeedMarketListings(st, g.Contract("OpenSea"), g.listings, contracts.TokenOwner, 1000)
	contracts.SeedAuctions(st, g.Contract("CryptoAuction"), g.auctions, contracts.TokenOwner, 100, BlockNumber+1000)
	return st
}

// Header returns the block header generated blocks use.
func (g *Generator) Header() types.BlockHeader {
	return types.BlockHeader{
		Height:    BlockNumber,
		Timestamp: 1700000000,
		Coinbase:  Coinbase,
		GasLimit:  30_000_000,
	}
}

func (g *Generator) nextNonce(a types.Address) uint64 {
	n := g.nonces[a]
	g.nonces[a] = n + 1
	return n
}

// freshAccount hands out accounts never used before in this generator,
// guaranteeing fee/nonce independence between transactions.
func (g *Generator) freshAccount() types.Address {
	if g.nextFresh >= len(g.accounts) {
		// Wrap around: reuse is acceptable for non-independence-critical txs.
		g.nextFresh = 0
	}
	a := g.accounts[g.nextFresh]
	g.nextFresh++
	return a
}

func (g *Generator) call(from types.Address, c *contracts.Contract, value uint64, fnName string, args ...any) *types.Transaction {
	to := c.Address
	tx := &types.Transaction{
		Nonce:    g.nextNonce(from),
		GasPrice: 1,
		GasLimit: 2_000_000,
		From:     from,
		To:       &to,
		Data:     contracts.EncodeCall(c.Function(fnName), args...),
	}
	tx.Value.SetUint64(value)
	return tx
}

// PlainTransfer builds a simple value transfer (a non-SCT transaction).
func (g *Generator) PlainTransfer(from, to types.Address, amount uint64) *types.Transaction {
	tx := &types.Transaction{
		Nonce:    g.nextNonce(from),
		GasPrice: 1,
		GasLimit: 50_000,
		From:     from,
		To:       &to,
	}
	tx.Value.SetUint64(amount)
	return tx
}

// tokenNames are the pure-storage token archetypes whose transfers touch
// only per-account balance slots (freely parallel with fresh accounts).
var tokenNames = []string{"TetherUSD", "FiatTokenProxy", "Dai", "LinkToken"}

// TokenBlock builds a block of n token transfers with approximately the
// target dependent-transaction ratio: a dependent transaction reuses an
// account (as sender) that an earlier transaction credited on the same
// token, creating real read/write conflicts the DAG captures.
func (g *Generator) TokenBlock(n int, depRatio float64) *types.Block {
	g.beginBlock()
	return types.NewBlock(g.Header(), g.tokenTxs(n, depRatio))
}

// tokenTxs generates token transfers without resetting block bookkeeping.
func (g *Generator) tokenTxs(n int, depRatio float64) []*types.Transaction {
	type use struct {
		token *contracts.Contract
		addr  types.Address
	}
	// Dependent transactions extend one of a small number of persistent
	// chains (conflicts in real blocks concentrate on a few hot accounts
	// and contracts), so the critical path grows linearly with the
	// dependent ratio: at 100% the block collapses to chainCount chains,
	// matching the residual parallelism the paper's Table 9 implies.
	const chainCount = 2
	var tails [chainCount]*use
	txs := make([]*types.Transaction, 0, n)

	for i := 0; i < n; i++ {
		token := g.Contract(tokenNames[g.rng.Intn(len(tokenNames))])
		var from, to types.Address
		if g.rng.Float64() < depRatio {
			k := g.rng.Intn(chainCount)
			if tails[k] == nil {
				// Start the chain: its first transaction is independent.
				tails[k] = &use{token, g.freshAccount()}
			}
			token = tails[k].token
			from = tails[k].addr
			to = g.freshAccount()
			tails[k] = &use{token, to}
		} else {
			from = g.freshAccount()
			to = g.freshAccount()
		}
		txs = append(txs, g.call(from, token, 0, "transfer", to, uint64(10)))
	}
	return txs
}

// SCTBlock builds a block where sctShare of the transactions invoke a
// smart contract (Tether transfers) and the rest are plain value
// transfers — the workload behind Table 1's observation that SCTs
// dominate execution overhead far beyond their count share.
func (g *Generator) SCTBlock(n int, sctShare float64) *types.Block {
	g.beginBlock()
	txs := make([]*types.Transaction, 0, n)
	sctCount := int(float64(n)*sctShare + 0.5)
	for i := 0; i < n; i++ {
		if i < sctCount {
			from, to := g.freshAccount(), g.freshAccount()
			txs = append(txs, g.call(from, g.Contract("TetherUSD"), 0, "transfer", to, uint64(10)))
		} else {
			txs = append(txs, g.PlainTransfer(g.freshAccount(), g.freshAccount(), 100))
		}
	}
	g.rng.Shuffle(len(txs), func(a, b int) { txs[a], txs[b] = txs[b], txs[a] })
	return types.NewBlock(g.Header(), txs)
}

// MixedBlock builds a block spanning all archetypes with a controlled
// dependent-transaction ratio — the Table 9 workload ("randomly select
// blocks with different dependency transaction ratios"). Dependent
// transactions extend two persistent transfer chains over a mix of
// App-engine-eligible and ineligible contracts; independent transactions
// rotate across every archetype.
func (g *Generator) MixedBlock(n int, depRatio float64) *types.Block {
	g.beginBlock()
	type chain struct {
		token *contracts.Contract
		addr  types.Address
	}
	// One chain runs on a plain ERC-20 (BPU App-engine territory), the
	// other on a wrapped/proxied token the dedicated dataflow cannot
	// accelerate — as in real blocks, dependent work is heterogeneous.
	chainTokens := [2][]string{{"TetherUSD", "Dai"}, {"WETH9", "FiatTokenProxy"}}
	var tails [2]*chain
	txs := make([]*types.Transaction, 0, n)
	for i := 0; i < n; i++ {
		if g.rng.Float64() < depRatio {
			k := g.rng.Intn(len(tails))
			if tails[k] == nil {
				tok := g.Contract(chainTokens[k][g.rng.Intn(2)])
				tails[k] = &chain{tok, g.freshAccount()}
			}
			from := tails[k].addr
			to := g.freshAccount()
			txs = append(txs, g.call(from, tails[k].token, 0, "transfer", to, uint64(10)))
			tails[k].addr = to
			continue
		}
		if i%3 == 0 {
			from, to := g.freshAccount(), g.freshAccount()
			txs = append(txs, g.call(from, g.Contract(tokenNames[g.rng.Intn(len(tokenNames))]), 0,
				"transfer", to, uint64(10)))
			continue
		}
		txs = append(txs, g.otherArchetypeTx(i))
	}
	return types.NewBlock(g.Header(), txs)
}

// ERC20Block builds a block where erc20Share of the transactions are
// Tether transfers (the BPU App engine's target) and the rest rotate
// across the other archetypes — the Table 8 workload.
func (g *Generator) ERC20Block(n int, erc20Share float64) *types.Block {
	g.beginBlock()
	txs := make([]*types.Transaction, 0, n)
	erc20Count := int(float64(n)*erc20Share + 0.5)
	for i := 0; i < n; i++ {
		if i < erc20Count {
			from, to := g.freshAccount(), g.freshAccount()
			txs = append(txs, g.call(from, g.Contract("TetherUSD"), 0, "transfer", to, uint64(10)))
			continue
		}
		txs = append(txs, g.otherArchetypeTx(i))
	}
	// Shuffle so ERC-20 and other transactions interleave.
	g.rng.Shuffle(len(txs), func(a, b int) { txs[a], txs[b] = txs[b], txs[a] })
	return types.NewBlock(g.Header(), txs)
}

// otherArchetypeTx rotates across the non-ERC20 archetypes.
func (g *Generator) otherArchetypeTx(i int) *types.Transaction {
	switch i % 6 {
	case 0: // AMM swap
		router := g.Contract("UniswapV2Router02")
		if i%12 >= 6 {
			router = g.Contract("SwapRouter")
		}
		fn := "swap0For1"
		if i%2 == 1 {
			fn = "swap1For0"
		}
		return g.call(g.freshAccount(), router, 0, fn, uint64(100+g.rng.Intn(1000)))
	case 1: // marketplace buy
		if g.nextListing < len(g.listings) {
			id := g.listings[g.nextListing]
			g.nextListing++
			return g.call(g.freshAccount(), g.Contract("OpenSea"), 1000, "buy", id)
		}
		id := g.nextMintID
		g.nextMintID++
		return g.call(g.freshAccount(), g.Contract("OpenSea"), 0, "mintItem", id)
	case 2: // gateway withdrawal (replay-protected)
		g.gatewayNonce++
		return g.call(g.freshAccount(), g.Contract("MainchainGatewayProxy"), 0,
			"requestWithdrawal", uint64(50), g.gatewayNonce)
	case 3: // WETH wrapped transfer
		return g.call(g.freshAccount(), g.Contract("WETH9"), 0, "transfer", g.freshAccount(), uint64(25))
	case 4: // ballot vote (one account, one vote)
		return g.call(g.voterAccount(), g.Contract("Ballot"), 0, "vote",
			uint64(g.rng.Intn(contracts.BallotProposals)))
	default: // auction bid; distinct ids so shuffled order cannot underbid
		id := g.auctions[g.nextAuction%len(g.auctions)]
		g.nextAuction++
		g.auctionBids[id] += 10
		return g.call(g.freshAccount(), g.Contract("CryptoAuction"), g.auctionBids[id], "bid", id)
	}
}

// voterAccount returns accounts that have never voted, drawn from the
// end of the pool so they never collide with freshAccount senders.
func (g *Generator) voterAccount() types.Address {
	a := g.accounts[len(g.accounts)-1-g.nextVoter%(len(g.accounts)/2)]
	g.nextVoter++
	return a
}

// Batch builds n transactions all invoking one contract, cycling through
// its entry functions and execution paths — the Fig. 12/13 and Table 7
// workload ("run through all the execution paths of that smart contract
// as much as possible").
func (g *Generator) Batch(c *contracts.Contract, n int) *types.Block {
	g.beginBlock()
	txs := make([]*types.Transaction, 0, n)
	for i := 0; i < n; i++ {
		txs = append(txs, g.batchTx(c, i))
	}
	return types.NewBlock(g.Header(), txs)
}

func (g *Generator) batchTx(c *contracts.Contract, i int) *types.Transaction {
	fresh := g.freshAccount
	switch c.Name {
	case "TetherUSD", "Dai", "FiatTokenProxy", "LinkToken":
		switch i % 16 {
		case 10:
			return g.call(fresh(), c, 0, "increaseAllowance", fresh(), uint64(50))
		case 11:
			// Raise then lower, as a holder would.
			owner := fresh()
			if i%32 < 16 {
				return g.call(owner, c, 0, "increaseAllowance", fresh(), uint64(75))
			}
			return g.call(owner, c, 0, "decimals")
		case 12:
			return g.call(fresh(), c, 0, "decimals")
		case 13:
			return g.call(fresh(), c, 0, "getOwner")
		case 14:
			return g.call(fresh(), c, 0, "batchTransfer3", fresh(), fresh(), fresh(), uint64(5))
		case 15:
			return g.call(fresh(), c, 0, "balanceOf", fresh())
		}
		switch i % 10 {
		case 0:
			return g.call(fresh(), c, 0, "balanceOf", fresh())
		case 1:
			return g.call(fresh(), c, 0, "totalSupply")
		case 2, 3:
			// approve then transferFrom by the approved spender.
			owner, spender := fresh(), fresh()
			if i%10 == 2 {
				g.approved[[2]types.Address{owner, spender}] = true
				return g.call(owner, c, 0, "approve", spender, uint64(1000))
			}
			for pair := range g.approved {
				delete(g.approved, pair)
				return g.call(pair[1], c, 0, "transferFrom", pair[0], fresh(), uint64(5))
			}
			return g.call(fresh(), c, 0, "transfer", fresh(), uint64(10))
		case 4:
			if c.Name == "LinkToken" {
				return g.call(fresh(), c, 0, "transferAndCall", contracts.ReceiverAddr, uint64(7))
			}
			if c.Name == "TetherUSD" {
				return g.call(contracts.TokenOwner, c, 0, "issue", uint64(1000))
			}
			if c.Name == "Dai" {
				return g.call(contracts.TokenOwner, c, 0, "mint", fresh(), uint64(1000))
			}
			return g.call(fresh(), c, 0, "transfer", fresh(), uint64(10))
		default:
			return g.call(fresh(), c, 0, "transfer", fresh(), uint64(10))
		}

	case "WETH9":
		switch i % 5 {
		case 0:
			return g.call(fresh(), c, 1000, "deposit")
		case 1:
			return g.call(fresh(), c, 0, "withdraw", uint64(100))
		case 2:
			return g.call(fresh(), c, 0, "totalSupply")
		default:
			return g.call(fresh(), c, 0, "transfer", fresh(), uint64(25))
		}

	case "UniswapV2Router02", "SwapRouter":
		switch i % 6 {
		case 0:
			return g.call(fresh(), c, 0, "addLiquidity", uint64(500), uint64(500))
		case 1:
			return g.call(fresh(), c, 0, "reserve0")
		case 2:
			return g.call(fresh(), c, 0, "balance0Of", fresh())
		case 3:
			return g.call(fresh(), c, 0, "swap1For0", uint64(100+uint64(i)))
		default:
			return g.call(fresh(), c, 0, "swap0For1", uint64(100+uint64(i)))
		}

	case "OpenSea":
		switch i % 5 {
		case 0:
			id := g.nextMintID
			g.nextMintID++
			return g.call(fresh(), c, 0, "mintItem", id)
		case 1:
			if g.nextListing < len(g.listings) {
				id := g.listings[g.nextListing]
				g.nextListing++
				return g.call(fresh(), c, 1000, "buy", id)
			}
			return g.call(fresh(), c, 0, "ownerOf", uint64(1))
		case 2:
			return g.call(fresh(), c, 0, "priceOf", uint64(1+uint64(i)%512))
		case 3:
			return g.call(fresh(), c, 0, "proceedsOf", contracts.TokenOwner)
		default:
			return g.call(fresh(), c, 0, "ownerOf", uint64(1+uint64(i)%512))
		}

	case "MainchainGatewayProxy":
		switch i % 4 {
		case 0:
			return g.call(fresh(), c, 500, "deposit")
		case 1:
			return g.call(fresh(), c, 0, "depositOf", fresh())
		case 2:
			g.gatewayNonce++
			return g.call(fresh(), c, 0, "isProcessed", g.gatewayNonce)
		default:
			g.gatewayNonce++
			return g.call(fresh(), c, 0, "requestWithdrawal", uint64(50), g.gatewayNonce)
		}

	case "Ballot":
		switch i % 4 {
		case 0:
			return g.call(fresh(), c, 0, "winningProposal")
		case 1:
			return g.call(fresh(), c, 0, "voteCount", uint64(i%contracts.BallotProposals))
		default:
			return g.call(g.voterAccount(), c, 0, "vote", uint64(i%contracts.BallotProposals))
		}

	case "CryptoAuction":
		switch i % 3 {
		case 0:
			id := g.nextMintID
			g.nextMintID++
			return g.call(fresh(), c, 0, "createSaleAuction", id, uint64(100))
		case 1:
			return g.call(fresh(), c, 0, "highestBid", g.auctions[i%len(g.auctions)])
		default:
			id := g.auctions[g.rng.Intn(len(g.auctions))]
			g.auctionBids[id] += 10
			return g.call(fresh(), c, g.auctionBids[id], "bid", id)
		}
	}
	// Fallback: first function with no arguments, else a transfer shape.
	return g.call(fresh(), c, 0, c.Functions[0].Name)
}

// BuildChainDAG builds the per-block DAGs of a chain by executing the
// blocks cumulatively against a copy of genesis (each block's conflicts
// are intra-block; cross-block ordering is given by the chain itself).
func BuildChainDAG(genesis *state.StateDB, blocks []*types.Block) error {
	st := genesis.Copy()
	for i, block := range blocks {
		if _, err := buildDAGOn(st, block); err != nil {
			return fmt.Errorf("workload: block %d: %w", i, err)
		}
	}
	return nil
}

// BuildDAG executes the block sequentially against a copy of genesis,
// records each transaction's read/write sets, and fills block.DAG with
// every conflict edge (i → j when i's writes intersect j's reads or
// writes, or i's reads intersect j's writes). The coinbase balance is
// excluded: fee crediting is commutative. It returns the receipts of the
// sequential run and an error if any transaction failed.
func BuildDAG(genesis *state.StateDB, block *types.Block) ([]*types.Receipt, error) {
	return buildDAGOn(genesis.Copy(), block)
}

// buildDAGOn is BuildDAG against a mutable state (committed, not copied).
func buildDAGOn(st *state.StateDB, block *types.Block) ([]*types.Receipt, error) {
	e := evm.New(evm.NewBlockContext(block.Header), st)
	n := len(block.Transactions)
	reads := make([]state.AccessSet, n)
	writes := make([]state.AccessSet, n)
	receipts := make([]*types.Receipt, n)

	coinbaseKey := state.AccessKey{Kind: state.AccessBalance, Addr: block.Header.Coinbase}
	for i, tx := range block.Transactions {
		st.BeginAccessRecord()
		r, err := evm.ApplyTransaction(e, tx, i)
		rd, wr := st.EndAccessRecord()
		if err != nil {
			return nil, fmt.Errorf("workload: tx %d invalid: %w", i, err)
		}
		delete(rd, coinbaseKey)
		delete(wr, coinbaseKey)
		reads[i], writes[i] = rd, wr
		receipts[i] = r
		if r.Status != types.ReceiptSuccess {
			return receipts, fmt.Errorf("workload: tx %d reverted", i)
		}
	}

	block.DAG = state.ConflictDAG(reads, writes)
	return receipts, nil
}

// VerifyDAG re-derives the block's conflict edges by sequential replay
// against a copy of genesis and checks they match block.DAG exactly —
// no missing edge (a conflict the consensus stage failed to declare) and
// no spurious edge (a declared dependency no replay justifies). Modes
// that trust the DAG are only as correct as this equivalence.
func VerifyDAG(genesis *state.StateDB, block *types.Block) error {
	st := genesis.Copy()
	e := evm.New(evm.NewBlockContext(block.Header), st)
	n := len(block.Transactions)
	reads := make([]state.AccessSet, n)
	writes := make([]state.AccessSet, n)

	coinbaseKey := state.AccessKey{Kind: state.AccessBalance, Addr: block.Header.Coinbase}
	for i, tx := range block.Transactions {
		st.BeginAccessRecord()
		_, err := evm.ApplyTransaction(e, tx, i)
		rd, wr := st.EndAccessRecord()
		if err != nil {
			return fmt.Errorf("workload: verify-dag: tx %d invalid: %w", i, err)
		}
		delete(rd, coinbaseKey)
		delete(wr, coinbaseKey)
		reads[i], writes[i] = rd, wr
	}

	if block.DAG == nil || block.DAG.Len() != n {
		return fmt.Errorf("workload: verify-dag: block DAG covers %d of %d transactions", block.DAG.Len(), n)
	}
	declared := make([]map[int]bool, n)
	for j, deps := range block.DAG.Deps {
		declared[j] = make(map[int]bool, len(deps))
		for _, i := range deps {
			declared[j][i] = true
		}
	}
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			conflict := writes[i].Overlaps(reads[j]) || writes[i].Overlaps(writes[j]) ||
				reads[i].Overlaps(writes[j])
			if conflict && !declared[j][i] {
				return fmt.Errorf("workload: verify-dag: replay conflict %d→%d missing from the DAG", i, j)
			}
			if !conflict && declared[j][i] {
				return fmt.Errorf("workload: verify-dag: DAG edge %d→%d not justified by any replay conflict", i, j)
			}
		}
	}
	return nil
}

// ContractOf returns the contract address each transaction invokes (zero
// for plain transfers), the scheduler's redundancy signal.
func ContractOf(block *types.Block) []types.Address {
	out := make([]types.Address, len(block.Transactions))
	for i, tx := range block.Transactions {
		if tx.To != nil && len(tx.Data) > 0 {
			out[i] = *tx.To
		}
	}
	return out
}
