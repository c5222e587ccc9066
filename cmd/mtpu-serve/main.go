// Command mtpu-serve runs the block-stream execution service: a staged
// cross-block pipeline (ingest → prefetch/decode → execute → commit)
// that keeps the simulated MTPU busy on block N while block N+1 is
// being decoded and block N−1 is being committed. Blocks arrive over
// HTTP (TCP and/or a unix socket) or from an in-process generated
// stream, and an optional shadow validator re-executes a sampled
// fraction of committed blocks through the sequential oracle.
//
// Usage:
//
//	mtpu-serve -source SPEC [-mode LIST] [-pus N] [-queue N]
//	           [-shadow-sample R] [-shadow-log] [-verify-chain]
//	           [-hotspot-top N] [-telemetry-addr A]
//	           [-cpuprofile F] [-memprofile F] [-blockprofile F]
//	           [-mutexprofile F]
//	mtpu-serve -addr :8573 [-unix PATH] [-genesis SPEC] [-mode NAME] ...
//	mtpu-serve -version
//
// SPEC is a chained workload spec (workload.ParseSpec): the token-chain
// shorthand `blocks=500,txs=64,dep=0.3,seed=1`, the mainnet-shaped
// scenario shorthand `scenario=dex,blocks=500,txs=64,skew=1.2,seed=1`,
// or the JSON of a workload.Spec with blocks >= 1, e.g.
// `{"kind":"dex","blocks":500,"txs":64,"skew":1.2,"seed":1}`. The
// -source form replays the generated stream in-process, drains, prints
// the service report and exits; with `-mode all` it runs the stream
// through every registered engine in turn. The -addr/-unix form serves until SIGINT/SIGTERM, then drains
// gracefully; its genesis state derives from -genesis so producers
// using the same spec seed generate compatible blocks.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mtpu/internal/engine"
	"mtpu/internal/profiling"
	"mtpu/internal/stream"
	"mtpu/internal/telemetry"
	"mtpu/internal/workload"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

// realMain is main with an exit code instead of os.Exit, so deferred
// profile flushes and server shutdowns run on every exit path, and with
// its standard output injected, so tests read the service report.
func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("mtpu-serve", flag.ExitOnError)
	mode := fs.String("mode", "spatial-temporal+redundancy+hotspot",
		fmt.Sprintf("engine to execute blocks on; with -source, a comma list or \"all\" (registered: %s)",
			strings.Join(engine.Names(), ", ")))
	pus := fs.Int("pus", 4, "number of processing units")
	queue := fs.Int("queue", stream.DefaultQueueDepth, "bounded depth of each pipeline stage queue")
	shadowSample := fs.Float64("shadow-sample", 0.1, "fraction of committed blocks re-executed through the sequential oracle (0 disables, 1 checks every block)")
	shadowLog := fs.Bool("shadow-log", false, "log shadow-validation mismatches and keep serving instead of halting")
	verifyChain := fs.Bool("verify-chain", false, "recompute the head-state digest after every fold and halt on digest-continuity mismatch (full-state hashing per block; CI/debugging)")
	hotspotTop := fs.Int("hotspot-top", 8, "hot contracts learned into the Contract Table after each block (0 disables)")
	source := fs.String("source", "", fmt.Sprintf("replay a generated block stream in-process (chained workload spec: token chain, e.g. blocks=500,txs=64,dep=0.3,seed=1, scenario, e.g. scenario=dex,blocks=500,txs=64,skew=1.2,seed=1, or the JSON of either; scenarios: %s)",
		strings.Join(workload.Scenarios, ", ")))
	addr := fs.String("addr", "", "serve block ingest over HTTP on this TCP address")
	unixPath := fs.String("unix", "", "serve block ingest on this unix socket path")
	genesisSpec := fs.String("genesis", "blocks=1,txs=64,seed=1", "chained workload spec the server's genesis state derives from, in -source's grammar (network mode; seed/txs/accounts size the account pool)")
	telemetryAddr := fs.String("telemetry-addr", "", "serve live metrics (Prometheus text, expvar, pprof) on this address while running")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	blockProfile := fs.String("blockprofile", "", "write a pprof goroutine-blocking profile at exit to this file")
	mutexProfile := fs.String("mutexprofile", "", "write a pprof mutex-contention profile at exit to this file")
	version := fs.Bool("version", false, "print build information and exit")
	fs.Parse(args)
	if *version {
		fmt.Fprintln(stdout, telemetry.Build())
		return 0
	}
	if *source == "" && *addr == "" && *unixPath == "" {
		fmt.Fprintln(os.Stderr, "mtpu-serve: nothing to do: pass -source SPEC and/or -addr/-unix listeners")
		return 2
	}

	modes, err := parseModes(*mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtpu-serve: %v\n", err)
		return 2
	}
	if len(modes) > 1 && (*addr != "" || *unixPath != "") {
		fmt.Fprintln(os.Stderr, "mtpu-serve: network ingest serves exactly one engine; pick one with -mode")
		return 2
	}

	stopProfiles, err := profiling.StartAll(profiling.Profiles{
		CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile, Mutex: *mutexProfile})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtpu-serve: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Printf("mtpu-serve: %v", err)
		}
	}()

	tel := telemetry.New()
	if *telemetryAddr != "" {
		taddr, stopServer, err := tel.Serve(*telemetryAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtpu-serve: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "telemetry: serving /metrics, /snapshot, /debug/vars, /debug/pprof on http://%s\n", taddr)
		defer func() {
			if err := stopServer(); err != nil {
				log.Printf("mtpu-serve: telemetry server: %v", err)
			}
		}()
	}

	// The source stream (when given) also supplies the genesis; a pure
	// network server derives genesis from -genesis so block producers
	// seeded identically stay compatible. Either flag accepts the token
	// chain or a Zipfian scenario.
	spec, err := workload.ParseSpec(*genesisSpec)
	if *source != "" {
		spec, err = workload.ParseSpec(*source)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtpu-serve: %v\n", err)
		return 2
	}

	cfg := stream.Config{
		NumPUs:        *pus,
		Queue:         *queue,
		HotspotTopN:   *hotspotTop,
		ShadowSample:  *shadowSample,
		ShadowLogOnly: *shadowLog,
		VerifyChain:   *verifyChain,
		Tel:           tel,
		Logf:          log.Printf,
	}

	code := 0
	for _, m := range modes {
		// A fresh stream per engine: -source replays its blocks, a pure
		// network server only takes the genesis from it.
		src, err := spec.OpenSource()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtpu-serve: %v\n", err)
			return 2
		}
		cfg.Mode = m
		cfg.Genesis = src.Genesis()
		rep, err := serveOne(cfg, src, *source != "", *addr, *unixPath, stdout)
		if rep != nil {
			fmt.Fprint(stdout, rep.Render())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtpu-serve: %v\n", err)
			code = 1
			break
		}
	}

	// The drained snapshot must satisfy the stream invariants — a
	// violation means the pipeline lost or duplicated blocks.
	snap := tel.Snapshot()
	if snap.Stream != nil {
		if err := snap.Stream.Check(code == 0); err != nil {
			fmt.Fprintf(os.Stderr, "mtpu-serve: telemetry invariants: %v\n", err)
			code = 1
		}
	}
	return code
}

// serveOne runs one service lifetime: start the pipeline, optionally
// start the listeners, feed the in-process source, drain on exhaustion
// or signal, and return the report.
func serveOne(cfg stream.Config, src *workload.Stream, replay bool, addr, unixPath string, stdout io.Writer) (*stream.Report, error) {
	svc, err := stream.New(cfg)
	if err != nil {
		return nil, err
	}

	var ingest *stream.Ingest
	if addr != "" || unixPath != "" {
		ingest, err = svc.ListenAndServe(addr, unixPath)
		if err != nil {
			svc.Close()
			svc.Wait()
			return nil, err
		}
		fmt.Fprintf(stdout, "ingest: POST /blocks on %s\n", describeListeners(ingest.Addr, unixPath))
		defer ingest.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		log.Printf("mtpu-serve: %s: draining (%s engine)", s, svc.Engine())
		svc.Close()
	}()

	if replay {
		for {
			b, ok := src.Next()
			if !ok {
				break
			}
			if err := svc.Submit(b); err != nil {
				break // draining or halted; Wait reports why
			}
		}
		svc.Close()
	}
	// A pure network server drains only on signal; the goroutine above
	// triggers Close, and Wait returns once the pipeline is empty.
	return svc.Wait()
}

func describeListeners(addr, unixPath string) string {
	switch {
	case addr != "" && unixPath != "":
		return fmt.Sprintf("http://%s and unix:%s", addr, unixPath)
	case addr != "":
		return "http://" + addr
	default:
		return "unix:" + unixPath
	}
}

// parseModes resolves -mode against the engine registry: "all"
// enumerates every registered engine in registration order.
func parseModes(spec string) ([]engine.Mode, error) {
	if spec == "all" {
		return engine.Modes(), nil
	}
	var modes []engine.Mode
	for _, name := range strings.Split(spec, ",") {
		m, err := engine.Parse(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		modes = append(modes, m)
	}
	return modes, nil
}
