// Command bench is the repository's benchmark: it drives the chained
// block-stream service (internal/stream, what mtpu-serve wraps) with
// seeded block streams and reports what an operator waits for — sync
// throughput, paced block latency, memory — and what a researcher
// reproducing the paper reads — simulated cycles and speed-up — plus a
// traced per-layer breakdown. See README.md for the metric glossary.
//
// Usage (from the repository root; `cd bench && go run .` is the same):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-trace-out FILE] [-out FILE]
//	bash bench/run.sh -compare A.json B.json
//
// Without -workload every workload runs, each in its own OS process so
// pools and peak RSS never leak between them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mtpu/internal/engine"
	"mtpu/internal/telemetry"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all, one process each)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same blocks")
	seconds := fs.Int("seconds", defaultSeconds, "run length the block counts are scaled to")
	trace := fs.Int("trace", 0, "which metrics the final JSON line carries: 0 end-to-end, 1 per-layer (also writes the trace file)")
	traceOut := fs.String("trace-out", "", "Chrome trace-event file of the traced run (default bench/out/<workload>.trace.json with -trace 1)")
	out := fs.String("out", "", "result JSON file (default bench/out/<workload>.json, or bench/out/result.json for all workloads)")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return runCompare(root, fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: need -seconds ≥ 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	outDir := filepath.Join(root, "bench", "out")

	if *name == "" {
		if *out == "" {
			*out = filepath.Join(outDir, "result.json")
		}
		return runAll(outDir, *out, *seed, *seconds, *trace)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *out == "" {
		*out = filepath.Join(outDir, w.name+".json")
	}
	if *traceOut == "" && *trace == 1 {
		*traceOut = filepath.Join(outDir, w.name+".trace.json")
	}
	printHeader()
	res := runWorkload(w.scaled(*seconds), *seed, warmupBlocks, *traceOut)
	res.print()
	if err := writeResults(*out, []*result{res}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res.printContractLine(*trace)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own and merges
// the children's result files.
func runAll(outDir, out string, seed int64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	var all []*result
	for _, w := range workloads {
		part := filepath.Join(outDir, w.name+".json")
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
		}
		f, err := readResults(part)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		all = append(all, f.Workloads...)
	}
	if err := writeResults(out, all); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nresults of %d workloads written to %s\n", len(all), out)
	return code
}

// result is one workload's run, as printed and as stored in result files.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Blocks    map[string]int     `json:"blocks"` // n, passes, k, warmup
	Correct   bool               `json:"correct"`
	Attempted int                `json:"blocks_attempted"`
	Failed    int                `json:"blocks_failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digests   map[string]string  `json:"head_digests"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	// PacedAttempts counts runs of the paced phase; all but the last
	// were discarded because the generator ran late.
	PacedAttempts int `json:"paced_attempts"`
	// The sync passes one by one: the in-run spread behind the medians.
	SyncPassBPS   []float64 `json:"sync_pass_blocks_per_s"`
	SyncPassRSSMB []float64 `json:"sync_pass_peak_rss_mb"`

	pacedSamples int
	pacedLate    bool               // the host could not hold the paced schedule
	phaseS       []string           // wall seconds of each phase
	shares       map[string]float64 // serial spans, µs per block
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host      telemetry.HostInfo  `json:"host"`
	Build     telemetry.BuildInfo `json:"build"`
	Claim     *string             `json:"claim"` // this benchmark claims no gain
	Workloads []*result           `json:"workloads"`
}

func writeResults(path string, results []*result) error {
	buf, err := json.MarshalIndent(resultFile{Host: telemetry.Host(), Build: telemetry.Build(), Workloads: results}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printHeader fingerprints the host and the build, without which host
// times cannot be compared.
func printHeader() {
	h := telemetry.Host()
	fmt.Printf("# host: %s/%s nproc=%d GOMAXPROCS=%d cpu=%q\n", h.OS, h.Arch, h.NumCPU, h.GOMAXPROCS, h.CPUModel)
	fmt.Printf("# build: %s\n", telemetry.Build())
}

// runWorkload runs the phases in their fixed order — setup, sync, paced,
// traced, verify — and assembles the result.
func runWorkload(w workloadDef, seed int64, warmup int, traceOut string) *result {
	res := &result{
		Workload: w.name, Seed: seed,
		Blocks:   map[string]int{"n": w.n, "passes": w.passes, "k": w.k, "warmup": warmup},
		Digests:  map[string]string{},
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{},
	}
	fail := func(err error) *result {
		res.Errors = append(res.Errors, err.Error())
		res.Attempted = max(res.Attempted, 1)
		res.Failed = res.Attempted
		return res
	}
	mode, err := engine.Parse(w.engine)
	if err != nil {
		return fail(err)
	}

	var in *inputs
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if in, err = setup(w, seed); err != nil {
			return fail(err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.EndToEnd["setup_s"] = median(setups)

	t0 := time.Now()
	lap := func(phase string) {
		res.phaseS = append(res.phaseS, fmt.Sprintf("%s %.1f", phase, time.Since(t0).Seconds()))
		t0 = time.Now()
	}
	refN, refK, err := reference(in, w.n, w.k)
	if err != nil {
		return fail(err)
	}
	lap("reference")
	sy := runSync(w, mode, in, refN)
	lap("sync")
	// A generator that ran late offered another schedule than the one
	// reported, so its attempt is discarded and the phase repeated: on two
	// Ps the Go scheduler can hold the submitter back for milliseconds.
	var pa *pacedResult
	for res.PacedAttempts = 1; ; res.PacedAttempts++ {
		if pa = runPaced(w, mode, in, refK, warmup); !pa.late || res.PacedAttempts == pacedAttempts {
			break
		}
		fmt.Fprintf(os.Stderr, "bench: %v; repeating the phase\n", pa.verifyError)
	}
	lap("paced")
	tr := runTraced(w, mode, in, refK)
	lap("traced")

	for _, err := range []error{sy.verifyError, pa.verifyError, tr.verifyError} {
		if err != nil {
			res.Errors = append(res.Errors, err.Error())
		}
	}
	if pa.verifyError == nil && tr.verifyError == nil && pa.replayCycles != tr.cycles {
		res.Errors = append(res.Errors, fmt.Sprintf("paced service replayed %d cycles, traced run %d: same blocks, same learn order, must be equal",
			pa.replayCycles, tr.cycles))
		pa.stats.failed = pa.stats.attempted
	}
	if tr.verifyError == nil && tr.perLayer["trace.span_coverage"] < 0.99 {
		res.Errors = append(res.Errors, fmt.Sprintf("trace.span_coverage %.4f < 0.99", tr.perLayer["trace.span_coverage"]))
	}
	res.Attempted = sy.stats.attempted + pa.stats.attempted + tr.attempted
	res.Failed = sy.stats.failed + pa.stats.failed + tr.failed
	res.Correct = len(res.Errors) == 0 && res.Failed == 0
	res.Digests["sync"], res.Digests["paced"], res.Digests["traced"] = sy.digest, pa.digest, tr.digest
	res.pacedSamples, res.pacedLate = pa.samples, pa.late
	res.shares = tr.spanUS

	e := res.EndToEnd
	e["sync_blocks_per_s"] = median(sy.passBPS)
	e["peak_rss_mb"] = median(sy.passRSSMB)
	res.SyncPassBPS, res.SyncPassRSSMB = sy.passBPS, sy.passRSSMB
	if pa.verifyError == nil {
		e["paced_latency_p50_ms"] = pa.p50MS
		e["paced_latency_p90_ms"] = pa.p90MS
	}
	if tr.verifyError == nil {
		e["sim_cycles_per_tx"] = float64(tr.cycles) / float64(tr.txs)
		e["sim_speedup_vs_scalar"] = float64(tr.scalar) / float64(tr.cycles)
	}

	p := res.PerLayer
	for k, v := range tr.perLayer {
		p[k] = v
	}
	sy.stats.metrics("sync", p)
	pa.stats.metrics("paced", p)
	p["trace.pipeline_gain"] = median(sy.passBPS) * tr.serialUS / 1e6
	p["gen.late_p99_ms"] = pa.lateP99MS
	p["gen.watch_resolution_us"] = pa.watchResUS
	p["host.alloc_kb_per_block"] = sy.allocKB
	p["host.mallocs_per_block"] = sy.mallocs
	p["host.gc_cycles"] = sy.gcCycles

	if traceOut != "" && tr.verifyError == nil {
		if err := tr.tr.writeChrome(traceOut); err != nil {
			res.Errors = append(res.Errors, err.Error())
			res.Correct = false
		}
	}
	return res
}

// print writes the human-readable report: every metric by name with its
// unit, and where a serial block's wall time goes.
func (r *result) print() {
	fmt.Printf("\n== workload %s  seed=%d  sync=%dx%d blocks  paced/traced=%d blocks (%d latency samples after %d warm-up, attempt %d)  GOMAXPROCS=%d\n",
		r.Workload, r.Seed, r.Blocks["passes"], r.Blocks["n"], r.Blocks["k"], r.pacedSamples, r.Blocks["warmup"], r.PacedAttempts, runtime.GOMAXPROCS(0))
	fmt.Printf("phase wall seconds: %s\n", strings.Join(r.phaseS, ", "))
	fmt.Printf("sync passes: blocks/s %.1f  peak RSS MB %.1f\n", r.SyncPassBPS, r.SyncPassRSSMB)
	fmt.Printf("blocks_attempted %d  blocks_failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Printf("ERROR %s\n", e)
	}
	printMetrics := func(title string, defs []metric, vals map[string]float64) {
		fmt.Printf("-- %s\n", title)
		for _, m := range defs {
			v, ok := vals[m.name]
			if !ok {
				fmt.Printf("%-42s %14s %s\n", m.name, "invalid", m.unit)
				continue
			}
			kind := "host"
			if m.exact {
				kind = "exact"
			}
			fmt.Printf("%-42s %14.4f %-7s %s\n", m.name, v, m.unit, kind)
		}
	}
	printMetrics("end-to-end (sync and paced phases untraced; sim_* are simulated time)", endToEnd, r.EndToEnd)
	printMetrics("per-layer (traced serial run and the service's stage counters)", perLayer, r.PerLayer)
	if serial := r.PerLayer["trace.serial_us_per_block"]; serial > 0 {
		fmt.Printf("-- where a serial block's wall time goes (%.0f us)\n", serial)
		for _, name := range serialSpans {
			fmt.Printf("%-42s %13.1f%%\n", name, 100*r.shares[name]/serial)
		}
	}
}

// printContractLine writes the one-line JSON object the driver reads
// from the end of standard output.
func (r *result) printContractLine(trace int) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.EndToEnd
	if trace == 1 {
		defs, vals = perLayer, r.PerLayer
	}
	metrics := map[string]value{}
	for _, m := range defs {
		if v, ok := vals[m.name]; ok {
			metrics[m.name] = value{v, m.unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	fmt.Println(string(line))
}
