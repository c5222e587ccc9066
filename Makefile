GO ?= go
FUZZTIME ?= 5s

.PHONY: all build test race vet fuzz-smoke diff-smoke bench bench-selftest stats-smoke perf serve-smoke scenario-smoke sweeps-identical ci

all: build

build:
	$(GO) build ./...

# go vet, then the formatting gate: fails when the toolchain's gofmt
# would rewrite any file of the tree (the bench/ module included),
# listing them.
vet:
	$(GO) vet ./...
	@unformatted="$$("$$($(GO) env GOROOT)/bin/gofmt" -l .)" || exit 1; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz pass over the decoder and data-structure targets: the
# assembler/disassembler round trips, the RLP and consensus-type
# decoders, the multi-version memory against its sequential oracle, the
# buffered state view against the journaled StateDB, the incremental
# state digest against the from-scratch sum, the indexed
# conflict-DAG builder against the pairwise one, and the scheduler's
# ready-list window refill against the full-scan rule.
fuzz-smoke:
	$(GO) test ./internal/asm -run '^$$' -fuzz FuzzAssemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asm -run '^$$' -fuzz FuzzDisassemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rlp -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/types -run '^$$' -fuzz FuzzDecodeTransactionRLP -fuzztime $(FUZZTIME)
	$(GO) test ./internal/types -run '^$$' -fuzz FuzzDecodeBlockRLP -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mvstate -run '^$$' -fuzz FuzzMVMemory -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mvstate -run '^$$' -fuzz FuzzViewVsStateDB -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mvstate -run '^$$' -fuzz FuzzDigestIncremental -fuzztime $(FUZZTIME)
	$(GO) test ./internal/state -run '^$$' -fuzz FuzzConflictDAG -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sched -run '^$$' -fuzz FuzzRefillVsScan -fuzztime $(FUZZTIME)
	$(GO) test ./internal/arch -run '^$$' -fuzz FuzzSymbolTable -fuzztime $(FUZZTIME)
	$(GO) test ./internal/difftest -run '^$$' -fuzz FuzzDiffEngines -fuzztime $(FUZZTIME)

# Cross-engine differential sweep under the race detector: every spec in
# the grid (dependence ratios, PU counts, window/cache geometry, and the
# adversarial corners — pure chains, hotspot contention, duplicate
# addresses) runs on all registered engines against the sequential
# oracle. Failures are delta-shrunk to minimal reproducers.
diff-smoke:
	$(GO) test -race ./internal/difftest

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# The block-stream benchmark (bench/) is its own module, so the root
# `go test ./...` never reaches its self-test.
bench-selftest:
	cd bench && $(GO) test ./...

# Run a small instrumented workload, write the counter report, and
# validate it against the JSON schema (strict decode + invariants). The
# second pass replays the scheduling grid, so the validator also checks
# fresh grid rows and that each sched/<engine> counter counts one replay
# per grid cell.
stats-smoke:
	$(GO) run ./cmd/mtpu-bench -stats -json bench_stats.json fig13
	$(GO) run ./cmd/mtpu-bench -validate bench_stats.json
	$(GO) run ./cmd/mtpu-bench -stats -json bench_grid.json baselines
	$(GO) run ./cmd/mtpu-bench -validate bench_grid.json

# The perf gate: run the simulator hot-loop cases, validate the fresh
# artifact, and fail unless every case did the same work as in the
# committed BENCH_perf.json — instructions, cycles and refill scans
# exactly, mallocs and bytes per repetition within 5 %. Work counts do
# not move with host speed or load, so the gate cannot fail on a busy
# machine; tx/s is printed and recorded but not gated. A change that
# moves the work by design regenerates the baseline and says why:
#   go run ./cmd/mtpu-bench -json BENCH_perf.json perf
perf:
	$(GO) run ./cmd/mtpu-bench -json bench_perf.json -perf-baseline BENCH_perf.json perf
	$(GO) run ./cmd/mtpu-bench -validate bench_perf.json

# Exercise the block-stream service end to end: mtpu-serve replays a
# 500-block in-process stream through every registered engine with
# shadow validation sampling, prints the service report, and exits
# non-zero on any shadow divergence or telemetry invariant violation
# (blocks lost/duplicated, queues not drained).
# The second pass is the chained digest-continuity gate: a shorter
# stream under the race detector with -verify-chain, which sums the
# head-state digest from scratch after every fold and halts unless it
# equals both the store's accumulator and the priced pre-fold digest.
serve-smoke:
	$(GO) run ./cmd/mtpu-serve -source blocks=500,txs=32,dep=0.3,seed=1 \
		-mode all -shadow-sample 0.1
	$(GO) run -race ./cmd/mtpu-serve -source blocks=64,txs=24,dep=0.5,seed=2 \
		-mode all -shadow-sample 1 -verify-chain

# Drive every mainnet-shaped Zipfian scenario through the block-stream
# service. Per scenario: a 500-block chained stream with digest-
# continuity verification and sampled shadow validation on the full
# engine, then a short race-enabled pass on every registered engine with
# every block shadow-validated. Either pass exits non-zero on a shadow
# divergence or a stream invariant violation.
scenario-smoke:
	for s in erc20-mix dex nft-mint airdrop oracle; do \
		$(GO) run ./cmd/mtpu-serve -source scenario=$$s,blocks=500,txs=16,skew=1.2,seed=7 \
			-shadow-sample 0.05 -verify-chain || exit 1; \
		$(GO) run -race ./cmd/mtpu-serve -source scenario=$$s,blocks=24,txs=12,skew=1.2,seed=8 \
			-mode all -shadow-sample 1 -verify-chain || exit 1; \
	done

# The same-machine contract: regenerate the full sweep report with the
# committed seed and parallelism and compare every field of
# BENCH_sweeps.json except the host-time ones (wall times, tx/s rates,
# perf reps and allocation counts, toolchain). Prints the first differing path and fails. A
# change that means to move a simulated number regenerates the file:
#   go run ./cmd/mtpu-bench -json BENCH_sweeps.json all
sweeps-identical:
	$(GO) test ./cmd/mtpu-bench -run '^TestSweepsIdentical$$' -count=1

ci: vet build race bench-selftest diff-smoke fuzz-smoke stats-smoke perf serve-smoke scenario-smoke sweeps-identical
