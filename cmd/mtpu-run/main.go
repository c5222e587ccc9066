// Command mtpu-run generates a synthetic block and executes it on the
// simulated MTPU under every registered execution engine, printing
// receipts and the cycle/speedup comparison — a one-command tour of the
// system.
//
// Usage:
//
//	mtpu-run [-txs N] [-dep R] [-pus N] [-seed N] [-mode LIST] [-v]
//	         [-dump F] [-load F] [-stats] [-trace-out F] [-verify-dag]
//	         [-telemetry-addr A] [-cpuprofile F] [-memprofile F]
//	         [-blockprofile F] [-mutexprofile F]
//	mtpu-run -diff FILE [-mode LIST]
//	mtpu-run -version
//
// The -diff form replays a saved differential-test spec (a corpus file
// written by the harness in internal/difftest, or a hand-written one)
// across the selected engines, shrinking and reporting any divergence.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/engine"
	"mtpu/internal/metrics"
	"mtpu/internal/mvstate"
	"mtpu/internal/obs"
	"mtpu/internal/profiling"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

// parseModes resolves the -mode flag against the engine registry: "all"
// (the default) enumerates every registered engine in registration
// order; otherwise each comma-separated name must parse.
func parseModes(spec string) ([]core.Mode, error) {
	if spec == "all" {
		return engine.Modes(), nil
	}
	var modes []core.Mode
	for _, name := range strings.Split(spec, ",") {
		m, err := engine.Parse(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		modes = append(modes, m)
	}
	return modes, nil
}

func main() {
	os.Exit(realMain())
}

// realMain is main with an exit code instead of os.Exit, so the
// deferred profile flush and telemetry-server shutdown run on every
// exit path — log.Fatalf used to skip them, silently truncating
// profile artifacts.
func realMain() int {
	txs := flag.Int("txs", 128, "transactions per block")
	dep := flag.Float64("dep", 0.3, "target dependent-transaction ratio (0..1)")
	pus := flag.Int("pus", 4, "number of processing units")
	seed := flag.Int64("seed", 1, "workload seed")
	mode := flag.String("mode", "all",
		fmt.Sprintf("comma-separated engine names, or \"all\" (registered: %s)",
			strings.Join(engine.Names(), ", ")))
	verbose := flag.Bool("v", false, "print per-transaction receipts")
	dump := flag.String("dump", "", "write the generated block (RLP, with DAG) to this file")
	load := flag.String("load", "", "execute a block previously written with -dump instead of generating one")
	stats := flag.Bool("stats", false, "print per-mode cycle accounting, DB-cache and scheduler counters")
	traceOut := flag.String("trace-out", "", "write the per-mode execution timelines as Chrome trace-event JSON (Perfetto / chrome://tracing)")
	verifyDAG := flag.Bool("verify-dag", false, "cross-check the consensus DAG against the conflicts a sequential replay observes")
	diff := flag.String("diff", "", "replay a saved differential-test spec (JSON) across the selected engines and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	blockProfile := flag.String("blockprofile", "", "write a pprof goroutine-blocking profile at exit to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a pprof mutex-contention profile at exit to this file")
	telemetryAddr := flag.String("telemetry-addr", "", "serve live metrics (Prometheus text, expvar, pprof) on this address while running")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		fmt.Println(telemetry.Build())
		return 0
	}

	modes, err := parseModes(*mode)
	if err != nil {
		log.Printf("mtpu-run: %v", err)
		return 1
	}

	stopProfiles, err := profiling.StartAll(profiling.Profiles{
		CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile, Mutex: *mutexProfile})
	if err != nil {
		log.Printf("mtpu-run: %v", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Printf("mtpu-run: %v", err)
		}
	}()

	if *diff != "" {
		return runDiff(*diff, modes)
	}

	gen := workload.NewGenerator(*seed, 4*(*txs)+64)
	genesis := gen.Genesis()

	var block *types.Block
	if *load != "" {
		raw, err := os.ReadFile(*load)
		if err != nil {
			log.Printf("mtpu-run: %v", err)
			return 1
		}
		block, err = types.DecodeBlockRLP(raw)
		if err != nil {
			log.Printf("mtpu-run: %v", err)
			return 1
		}
		fmt.Printf("loaded block %s from %s\n", block.Hash(), *load)
	} else {
		block = gen.TokenBlock(*txs, *dep)
		if _, err := workload.BuildDAG(genesis, block); err != nil {
			log.Printf("mtpu-run: %v", err)
			return 1
		}
	}
	if *dump != "" {
		if err := os.WriteFile(*dump, block.EncodeRLP(), 0o644); err != nil {
			log.Printf("mtpu-run: %v", err)
			return 1
		}
		fmt.Printf("block %s written to %s (%d bytes)\n",
			block.Hash(), *dump, len(block.EncodeRLP()))
	}

	if *verifyDAG {
		if err := workload.VerifyDAG(genesis, block); err != nil {
			log.Printf("mtpu-run: %v", err)
			return 1
		}
		fmt.Println("DAG verified: edges match sequential-replay conflicts exactly")
	}

	traces, receipts, digest, err := core.CollectTraces(genesis, block)
	if err != nil {
		log.Printf("mtpu-run: %v", err)
		return 1
	}

	fmt.Printf("block: %d transactions, dependent ratio %.2f, critical path %d\n",
		len(block.Transactions), block.DAG.DependentRatio(), block.DAG.CriticalPathLen())
	if *stats {
		fp := genesis.Footprint()
		fmt.Printf("genesis state: %d accounts, %d storage slots, %d code bytes\n",
			fp.Accounts, fp.StorageSlots, fp.CodeBytes)
	}
	fmt.Printf("state digest: %s\n", digest)
	var gas uint64
	for _, r := range receipts {
		gas += r.GasUsed
	}
	fmt.Printf("gas used: %d\n\n", gas)

	if *verbose {
		for i, r := range receipts {
			tx := block.Transactions[i]
			status := "ok"
			if r.Status != types.ReceiptSuccess {
				status = "REVERTED"
			}
			fmt.Printf("  tx %3d  %s -> %s  gas=%6d  %s\n",
				i, tx.From, tx.To, r.GasUsed, status)
		}
		fmt.Println()
	}

	cfg := arch.DefaultConfig()
	cfg.NumPUs = *pus
	acc := core.New(cfg)
	acc.LearnHotspots(traces, 8)

	var tel *telemetry.Metrics
	if *telemetryAddr != "" {
		tel = telemetry.New()
		addr, stopServer, err := tel.Serve(*telemetryAddr)
		if err != nil {
			log.Printf("mtpu-run: %v", err)
			return 1
		}
		fmt.Printf("telemetry: serving /metrics, /snapshot, /debug/vars, /debug/pprof on http://%s\n", addr)
		defer func() {
			if err := stopServer(); err != nil {
				log.Printf("mtpu-run: telemetry server: %v", err)
			}
		}()
	}

	instrument := *stats || *traceOut != ""
	t := metrics.NewTable(fmt.Sprintf("execution modes (%d PUs)", *pus),
		"mode", "cycles", "speedup", "IPC", "hit", "util")
	var baseline uint64 // first listed mode anchors the speedup column
	var reports []*obs.Report
	head := mvstate.NewStore(genesis, nil).Head()
	for _, m := range modes {
		opts := core.ReplayOpts{Head: head, Tel: tel}
		if instrument {
			opts.Obs = obs.NewCollector()
		}
		res, err := acc.ReplayWith(block, traces, receipts, digest, m, opts)
		if err != nil {
			log.Printf("mtpu-run: %v: %v", m, err)
			return 1
		}
		if baseline == 0 {
			baseline = res.Cycles
		}
		// Each engine declares how its schedule is checked: DAG-order
		// engines replay the dispatch timeline against the consensus DAG;
		// internal-digest engines (optimistic execution) asserted state
		// identity inside Run, and every runtime-detected conflict must lie
		// inside the DAG's transitive closure.
		if err := core.VerifyResultAt(head, block, res); err != nil {
			log.Printf("mtpu-run: serializability check failed: %v", err)
			return 1
		}
		t.Row(m.String(), res.Cycles, metrics.X(float64(baseline)/float64(res.Cycles)),
			res.Pipeline.IPC(), res.Pipeline.HitRatio(), res.Utilization)
		if instrument {
			reports = append(reports, res.Obs)
		}
	}
	fmt.Println(t.String())
	fmt.Println("all modes verified serializable (identical state digests)")

	if *stats {
		for _, r := range reports {
			fmt.Printf("\n=== %s ===\n%s", r.Mode, r.Render())
		}
	}
	if *traceOut != "" {
		procs := make([]obs.Process, len(reports))
		for i, r := range reports {
			procs[i] = obs.Process{Name: r.Mode, Spans: r.Spans}
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Printf("mtpu-run: %v", err)
			return 1
		}
		if err := obs.WriteChromeTrace(f, procs); err != nil {
			f.Close()
			log.Printf("mtpu-run: writing trace: %v", err)
			return 1
		}
		if err := f.Close(); err != nil {
			log.Printf("mtpu-run: %v", err)
			return 1
		}
		fmt.Printf("\ntimeline written to %s — open in https://ui.perfetto.dev or chrome://tracing (one process per mode, one thread per PU)\n", *traceOut)
	}
	return 0
}
