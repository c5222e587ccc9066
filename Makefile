GO ?= go
FUZZTIME ?= 5s

.PHONY: all build test race vet fuzz-smoke diff-smoke bench bench-selftest stats-smoke perf report-smoke serve-smoke scenario-smoke sweeps-identical ci

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

# Measure simulator hot-loop throughput (host tx/s), validate the fresh
# artifact, and fail if any point regresses below the committed
# BENCH_perf.json baseline by more than the ratio. The numbers are
# host-dependent and the shared CI machines are noisy, so the gate is
# deliberately loose — it catches order-of-magnitude regressions (a lost
# fast path), not percent-level drift. To adopt new numbers as the
# baseline: copy bench_perf.json over BENCH_perf.json and commit.
perf:
	$(GO) run ./cmd/mtpu-bench -json bench_perf.json -perf-baseline BENCH_perf.json -perf-min-ratio 0.4 perf
	$(GO) run ./cmd/mtpu-bench -validate bench_perf.json

# Exercise the run-ledger/regression loop end to end: two quick perf
# passes append JSONL ledger entries, then mtpu-report diffs them and
# must exit zero (the threshold is loose — back-to-back passes on one
# machine only differ by noise; a 5x collapse means the ledger or the
# comparison broke).
report-smoke:
	rm -f bench_ledger_a.jsonl bench_ledger_b.jsonl
	$(GO) run ./cmd/mtpu-bench -perf-wall 40ms -ledger bench_ledger_a.jsonl perf
	$(GO) run ./cmd/mtpu-bench -perf-wall 40ms -ledger bench_ledger_b.jsonl perf
	$(GO) run ./cmd/mtpu-report -min-ratio 0.2 bench_ledger_a.jsonl bench_ledger_b.jsonl

# Exercise the block-stream service end to end: mtpu-serve replays a
# 500-block in-process stream through every registered engine with
# shadow validation sampling, appends the service report to the run
# ledger, and exits non-zero on any shadow divergence or telemetry
# invariant violation (blocks lost/duplicated, queues not drained).
# The second pass is the chained digest-continuity gate: a shorter
# stream under the race detector with -verify-chain, which sums the
# head-state digest from scratch after every fold and halts unless it
# equals both the store's accumulator and the priced pre-fold digest.
serve-smoke:
	rm -f bench_serve.jsonl
	$(GO) run ./cmd/mtpu-serve -source blocks=500,txs=32,dep=0.3,seed=1 \
		-mode all -shadow-sample 0.1 -ledger bench_serve.jsonl
	$(GO) run -race ./cmd/mtpu-serve -source blocks=64,txs=24,dep=0.5,seed=2 \
		-mode all -shadow-sample 1 -verify-chain -ledger bench_serve.jsonl

# Drive every mainnet-shaped Zipfian scenario through the block-stream
# service. Per scenario: a 500-block chained stream with digest-
# continuity verification and sampled shadow validation on the full
# engine, then a short race-enabled pass on every registered engine with
# every block shadow-validated. Service reports accumulate in the
# bench_scenarios.jsonl run ledger.
scenario-smoke:
	rm -f bench_scenarios.jsonl
	for s in erc20-mix dex nft-mint airdrop oracle; do \
		$(GO) run ./cmd/mtpu-serve -source scenario=$$s,blocks=500,txs=16,skew=1.2,seed=7 \
			-shadow-sample 0.05 -verify-chain -ledger bench_scenarios.jsonl || exit 1; \
		$(GO) run -race ./cmd/mtpu-serve -source scenario=$$s,blocks=24,txs=12,skew=1.2,seed=8 \
			-mode all -shadow-sample 1 -verify-chain -ledger bench_scenarios.jsonl || exit 1; \
	done

# The same-machine contract: regenerate the full sweep report with the
# committed seed and parallelism and compare every field of
# BENCH_sweeps.json except the host-time ones (wall times, tx/s rates,
# perf reps, toolchain). Prints the first differing path and fails. A
# change that means to move a simulated number regenerates the file:
#   go run ./cmd/mtpu-bench -json BENCH_sweeps.json all
sweeps-identical:
	$(GO) test ./cmd/mtpu-bench -run '^TestSweepsIdentical$$' -count=1

ci: vet build race bench-selftest diff-smoke fuzz-smoke stats-smoke perf report-smoke serve-smoke scenario-smoke sweeps-identical
