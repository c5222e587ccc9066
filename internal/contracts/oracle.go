package contracts

import (
	"mtpu/internal/evm"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// PriceOracle storage layout (a Chainlink-style multi-feed aggregator):
//
//	slot 1: mapping(uint256 feed => uint256 price)
//	slot 2: mapping(uint256 feed => uint256 round)
//	slot 3: mapping(address reader => uint256 lastRoundSeen)
const (
	slotOraclePrices = 1
	slotOracleRounds = 2
	slotOracleSeen   = 3
)

// NewPriceOracle builds the oracle-scenario contract: posters submit
// prices to feeds (bumping the feed's round), consumers read the latest
// answer and record the round they saw. Every submit writes the feed's
// price and round slots every consume reads, so traffic concentrated on
// a Zipf-hot feed forms read-write conflict chains.
func NewPriceOracle() *Contract {
	submit := fn("submit", "submit(uint256,uint256)", false)
	consume := fn("consume", "consume(uint256)", false)
	latestAnswer := fn("latestAnswer", "latestAnswer(uint256)", false)
	latestRound := fn("latestRound", "latestRound(uint256)", false)
	lastSeen := fn("lastSeen", "lastSeen(address)", false)
	fns := []Function{submit, consume, latestAnswer, latestRound, lastSeen}

	c := NewCode()
	c.Dispatcher(fns)

	// submit(uint256 feed, uint256 price): prices[feed] = price,
	// rounds[feed] += 1. Zero prices are rejected so consume's liveness
	// check (price != 0) is an invariant, not a convention.
	c.Begin(submit)
	c.Arg(1) // [price]
	c.Op(evm.ISZERO, evm.ISZERO)
	c.Require()
	c.Arg(1)                    // [price]
	c.Arg(0)                    // [feed, price]
	c.MapSlot(slotOraclePrices) // [slot, price]
	c.Op(evm.SSTORE)            // []
	c.Arg(0)                    // [feed]
	c.MapSlot(slotOracleRounds) // [slot]
	c.Op(evm.DUP1, evm.SLOAD)   // [round, slot]
	c.PushInt(1).Op(evm.ADD)    // [round+1, slot]
	c.Op(evm.SWAP1, evm.SSTORE) // []
	c.Stop()

	// consume(uint256 feed) → price: requires a live feed (price != 0),
	// reads the feed's round and records it under the caller.
	c.Begin(consume)
	c.Arg(0)                    // [feed]
	c.MapSlot(slotOraclePrices) // [slot]
	c.Op(evm.SLOAD)             // [price]
	c.Op(evm.DUP1, evm.ISZERO, evm.ISZERO)
	c.Require()                 // [price]
	c.Arg(0)                    // [feed, price]
	c.MapSlot(slotOracleRounds) // [slot, price]
	c.Op(evm.SLOAD)             // [round, price]
	c.Op(evm.CALLER)            // [caller, round, price]
	c.MapSlot(slotOracleSeen)   // [slot, round, price]
	c.Op(evm.SSTORE)            // [price]
	c.ReturnWord()

	mapView := func(f Function, base uint64, addrKey bool) {
		c.Begin(f)
		if addrKey {
			c.ArgAddr(0)
		} else {
			c.Arg(0)
		}
		c.MapSlot(base)
		c.Op(evm.SLOAD)
		c.ReturnWord()
	}
	mapView(latestAnswer, slotOraclePrices, false)
	mapView(latestRound, slotOracleRounds, false)
	mapView(lastSeen, slotOracleSeen, true)

	code := c.MustBuild()
	return &Contract{
		Name:      "PriceOracle",
		Address:   OracleAddr,
		Code:      code,
		Functions: fns,
		Setup: func(st *state.StateDB) {
			st.SetCode(OracleAddr, code)
			st.DiscardJournal()
		},
	}
}

// SeedOracleFeeds initializes feeds 0..numFeeds-1 with a starting price
// and round 1, so consume transactions succeed from the first block.
func SeedOracleFeeds(st *state.StateDB, oracle *Contract, numFeeds int, price uint64) {
	p := uint256.NewInt(price)
	one := uint256.NewInt(1)
	for id := 0; id < numFeeds; id++ {
		idKey := types.Hash(uint256.NewInt(uint64(id)).Bytes32())
		st.SetState(oracle.Address, MapKeySlot(idKey, slotOraclePrices), *p)
		st.SetState(oracle.Address, MapKeySlot(idKey, slotOracleRounds), *one)
	}
	st.DiscardJournal()
}
