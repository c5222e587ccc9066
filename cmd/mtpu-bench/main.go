// Command mtpu-bench regenerates the paper's evaluation tables and
// figures on the simulated MTPU. Each subcommand prints one artifact;
// "all" prints everything (the EXPERIMENTS.md source data).
//
// Usage:
//
//	mtpu-bench [-seed N] [-parallel N] [-stats] [-json FILE] {table1|table2|table6|fig12|fig13|table7|fig14|fig15|fig16|table8|table9|chunking|ablation|baselines|scenarios|perf|all}
//	mtpu-bench -validate FILE
//
// Sweep points fan out over -parallel worker goroutines; results are
// byte-identical at every worker count (each point writes only its own
// output slot, and blocks/traces come from a call-order-independent
// cache). fig14, fig15, fig16 and baselines render one scheduling grid,
// replayed once per run. -json additionally writes a machine-readable
// wall-clock report; -stats merges per-experiment counter snapshots into
// it and prints them; -validate checks a previously written report
// against the schema.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/engine"
	"mtpu/internal/experiments"
	"mtpu/internal/profiling"
	"mtpu/internal/telemetry"
)

// reportSchema versions the -json layout; bump on incompatible changes
// so checked-in BENCH_*.json files stay self-describing. v3 added the
// optimistic-baseline sweep rows ("stm"); v4 added the
// batch-schedule-execute sweep rows ("bse"); v5 added the simulator
// hot-loop throughput rows ("perf"); v6 added the build fingerprint
// ("build": module version, VCS revision/time); v7 added the
// mainnet-shaped scenario sweep rows ("scenarios"); v8 replaced the
// "stm" and "bse" rows with the scheduling grid's rows ("sched"), one
// per (dep ratio, PU count) with a cell per engine replayed there; v9
// added the per-repetition work counts to the perf rows (cycles, refill
// scans, mallocs, bytes).
const reportSchema = 9

// artifactResult is one experiment's rendering plus its sweep summary.
type artifactResult struct {
	output string
	points int // measured sweep points
	minSpd float64
	maxSpd float64
}

// experimentReport is one entry of the -json report.
type experimentReport struct {
	Name       string  `json:"name"`
	WallMS     float64 `json:"wall_ms"`
	Points     int     `json:"points"`
	MinSpeedup float64 `json:"min_speedup,omitempty"`
	MaxSpeedup float64 `json:"max_speedup,omitempty"`
}

// counterReport is one label's merged counter snapshot (-stats).
type counterReport struct {
	Label string `json:"label"`
	experiments.Snapshot
}

// benchReport is the -json document. The leading metadata block makes
// checked-in BENCH_*.json files self-describing: which schema, which
// toolchain, and which architectural configuration produced them.
type benchReport struct {
	Schema      int                 `json:"schema"`
	GoVersion   string              `json:"go_version"`
	Build       telemetry.BuildInfo `json:"build"`
	Seed        int64               `json:"seed"`
	Parallel    int                 `json:"parallel"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	Arch        arch.Config         `json:"arch"`
	Experiments []experimentReport  `json:"experiments"`
	Counters    []counterReport     `json:"counters,omitempty"`

	// Sched carries the scheduling grid's rows when a grid artifact
	// (fig14, fig15, fig16, baselines) ran — the source data of the
	// EXPERIMENTS.md scheduling and software-baseline sections.
	Sched []experiments.SchedPoint `json:"sched,omitempty"`
	// Perf carries the simulator hot-loop rows ("perf" artifact): the
	// work one repetition does, which `make perf` gates, and host-side
	// simulated-tx/s, which it reports. Unlike every other artifact
	// these measure the simulator itself; the allocation counts depend
	// on the toolchain and the rates on the machine.
	Perf []experiments.PerfPoint `json:"perf,omitempty"`
	// Scenarios carries the mainnet-shaped scenario sweep rows
	// ("scenarios" artifact): every Zipfian traffic shape replayed as a
	// chained block stream by every engine at each PU count. Cycles and
	// speedups are deterministic; tx/s is host wall-clock and therefore
	// machine-dependent, like Perf.
	Scenarios []experiments.ScenarioPoint `json:"scenarios,omitempty"`

	TotalWallMS float64 `json:"total_wall_ms"`
}

// spdRange folds a sequence of speedups into (points, min, max).
type spdRange struct {
	n        int
	min, max float64
}

func (r *spdRange) add(s float64) {
	if r.n == 0 || s < r.min {
		r.min = s
	}
	if r.n == 0 || s > r.max {
		r.max = s
	}
	r.n++
}

func main() {
	os.Exit(realMain())
}

// realMain is main with an exit code instead of os.Exit, so the
// deferred profile flush and telemetry-server shutdown run on every
// exit path — a mid-run os.Exit used to truncate profile artifacts
// silently.
func realMain() int {
	seed := flag.Int64("seed", experiments.DefaultSeed, "workload generator seed")
	parallel := flag.Int("parallel", 1, "worker goroutines per experiment (<=0 uses GOMAXPROCS)")
	jsonPath := flag.String("json", "", "write a machine-readable wall-clock report to this file")
	stats := flag.Bool("stats", false, "collect per-experiment counter snapshots (printed and merged into -json)")
	validate := flag.String("validate", "", "validate a previously written -json report against the schema and exit")
	perfBaseline := flag.String("perf-baseline", "", "compare the perf artifact's work counts against this committed report and fail when any moved")
	perfOnly := flag.String("perf-only", "", "run only perf points whose name contains this substring (profiling aid)")
	perfWall := flag.Duration("perf-wall", experiments.DefaultPerfWall, "per-point measurement budget of the perf artifact")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	blockProfile := flag.String("blockprofile", "", "write a pprof goroutine-blocking profile at exit to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a pprof mutex-contention profile at exit to this file")
	telemetryAddr := flag.String("telemetry-addr", "", "serve live metrics (Prometheus text, expvar, pprof) on this address while running")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Usage = usage
	flag.Parse()
	if *version {
		fmt.Println(telemetry.Build())
		return 0
	}
	if *validate != "" {
		if err := validateReport(*validate); err != nil {
			fmt.Fprintf(os.Stderr, "mtpu-bench: %s: %v\n", *validate, err)
			return 1
		}
		fmt.Printf("%s: valid (schema %d)\n", *validate, reportSchema)
		return 0
	}
	if flag.NArg() != 1 {
		usage()
		return 2
	}
	stopProfiles, err := profiling.StartAll(profiling.Profiles{
		CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile, Mutex: *mutexProfile})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtpu-bench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "mtpu-bench: %v\n", err)
		}
	}()

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	env := experiments.NewEnv(*seed)
	env.Workers = workers
	env.PerfWall = *perfWall
	if *stats {
		env.Stats = experiments.NewStatsRecorder()
	}
	if *telemetryAddr != "" {
		env.Tel = telemetry.New()
		addr, stopServe, err := env.Tel.Serve(*telemetryAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtpu-bench: telemetry listener: %v\n", err)
			return 1
		}
		fmt.Printf("telemetry: serving /metrics /snapshot /debug/{vars,pprof} on http://%s\n", addr)
		defer stopServe()
	}

	cmd := flag.Arg(0)
	var schedPoints []experiments.SchedPoint
	grid := sync.OnceValue(func() []experiments.SchedPoint {
		schedPoints = experiments.SchedulingSweep(env, experiments.SchedPUCounts, experiments.DepRatios)
		return schedPoints
	})
	var perfPoints []experiments.PerfPoint
	var scenarioPoints []experiments.ScenarioPoint
	artifacts := map[string]func() artifactResult{
		"perf": func() artifactResult {
			perfPoints = experiments.PerfSweepOnly(env, *perfOnly)
			return artifactResult{output: experiments.RenderPerf(perfPoints),
				points: len(perfPoints)}
		},
		"baselines": func() artifactResult {
			pts := grid()
			return schedResult("baselines", experiments.RenderBaselines(pts), pts)
		},
		"scenarios": func() artifactResult {
			scenarioPoints = experiments.ScenarioSweep(env)
			var r spdRange
			for _, p := range scenarioPoints {
				r.add(p.Speedup)
			}
			return artifactResult{output: experiments.RenderScenarios(scenarioPoints),
				points: r.n, minSpd: r.min, maxSpd: r.max}
		},
		"table1": func() artifactResult {
			rows := experiments.Table1(env)
			return artifactResult{output: experiments.RenderTable1(rows), points: len(rows)}
		},
		"table2": func() artifactResult {
			rows := experiments.Table2(env)
			return artifactResult{output: experiments.RenderTable2(rows), points: len(rows)}
		},
		"table6": func() artifactResult {
			rows := experiments.Table6(env)
			return artifactResult{output: experiments.RenderTable6(rows), points: len(rows)}
		},
		"fig12": func() artifactResult {
			rows := experiments.Fig12(env)
			var r spdRange
			for _, row := range rows {
				for _, s := range row.Speedup {
					r.add(s)
				}
			}
			return artifactResult{output: experiments.RenderFig12(rows),
				points: r.n, minSpd: r.min, maxSpd: r.max}
		},
		"fig13": func() artifactResult {
			rows := experiments.Fig13(env)
			points := 0
			for _, row := range rows {
				points += len(row.HitRatios)
			}
			return artifactResult{output: experiments.RenderFig13(rows), points: points}
		},
		"table7": func() artifactResult {
			rows := experiments.Table7(env)
			var r spdRange
			for _, row := range rows {
				r.add(row.At2KSpeedup)
			}
			return artifactResult{output: experiments.RenderTable7(rows),
				points: len(rows), minSpd: r.min, maxSpd: r.max}
		},
		"fig14": func() artifactResult {
			pts := grid()
			out := experiments.RenderSchedPoints(
				"Fig.14(a) — speedup, synchronous execution", pts, core.ModeSynchronous, "speedup") + "\n" +
				experiments.RenderSchedPoints(
					"Fig.14(b) — speedup, spatio-temporal scheduling", pts, core.ModeSpatialTemporal, "speedup")
			return schedResult("fig14", out, pts)
		},
		"fig15": func() artifactResult {
			pts := grid()
			out := experiments.RenderSchedPoints(
				"Fig.15(a) — utilization, synchronous execution", pts, core.ModeSynchronous, "util") + "\n" +
				experiments.RenderSchedPoints(
					"Fig.15(b) — utilization, spatio-temporal scheduling", pts, core.ModeSpatialTemporal, "util")
			return schedResult("fig15", out, pts)
		},
		"fig16": func() artifactResult {
			pts := grid()
			out := experiments.RenderSchedPoints(
				"Fig.16(a) — speedup, ST + redundancy optimization", pts, core.ModeSTRedundancy, "speedup") + "\n" +
				experiments.RenderSchedPoints(
					"Fig.16(b) — speedup, ST + redundancy + hotspot", pts, core.ModeSTHotspot, "speedup")
			return schedResult("fig16", out, pts)
		},
		"table8": func() artifactResult {
			rows := experiments.Table8(env)
			var r spdRange
			for _, row := range rows {
				r.add(row.MTPUSpeedup)
			}
			return artifactResult{output: experiments.RenderTable8(rows),
				points: len(rows), minSpd: r.min, maxSpd: r.max}
		},
		"table9": func() artifactResult {
			rows := experiments.Table9(env)
			var r spdRange
			for _, row := range rows {
				r.add(row.MTPUSpeedup)
			}
			return artifactResult{output: experiments.RenderTable9(rows),
				points: len(rows), minSpd: r.min, maxSpd: r.max}
		},
		"chunking": func() artifactResult {
			rows := experiments.Chunking(env)
			return artifactResult{output: experiments.RenderChunking(rows), points: len(rows)}
		},
		"ablation": func() artifactResult {
			rows := experiments.Ablations(env)
			var r spdRange
			for _, row := range rows {
				r.add(row.Speedup)
			}
			return artifactResult{output: experiments.RenderAblations(rows),
				points: len(rows), minSpd: r.min, maxSpd: r.max}
		},
	}
	order := []string{"table1", "table2", "table6", "fig12", "fig13", "table7",
		"fig14", "fig15", "fig16", "table8", "table9", "chunking", "ablation", "baselines",
		"scenarios", "perf"}

	var names []string
	if cmd == "all" {
		names = order
	} else if _, ok := artifacts[cmd]; ok {
		names = []string{cmd}
	} else {
		fmt.Fprintf(os.Stderr, "mtpu-bench: unknown artifact %q\n", cmd)
		usage()
		return 2
	}

	report := benchReport{
		Schema:     reportSchema,
		GoVersion:  runtime.Version(),
		Build:      telemetry.Build(),
		Seed:       *seed,
		Parallel:   workers,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Arch:       arch.DefaultConfig(),
	}
	start := time.Now()
	for _, name := range names {
		expStart := time.Now()
		res := artifacts[name]()
		fmt.Println(res.output)
		report.Experiments = append(report.Experiments, experimentReport{
			Name:       name,
			WallMS:     float64(time.Since(expStart).Microseconds()) / 1000,
			Points:     res.points,
			MinSpeedup: res.minSpd,
			MaxSpeedup: res.maxSpd,
		})
	}
	report.Sched = schedPoints
	report.Perf = perfPoints
	report.Scenarios = scenarioPoints
	report.TotalWallMS = float64(time.Since(start).Microseconds()) / 1000

	if *perfBaseline != "" {
		if err := gatePerf(*perfBaseline, perfPoints); err != nil {
			fmt.Fprintf(os.Stderr, "mtpu-bench: perf gate: %v\n", err)
			return 1
		}
		fmt.Printf("perf gate: ok (every work count equals the %s baseline; allocations within %.0f%%)\n",
			*perfBaseline, perfAllocTolerance*100)
	}

	if env.Stats != nil {
		fmt.Println(experiments.RenderStats(env.Stats))
		for _, label := range env.Stats.Labels() {
			report.Counters = append(report.Counters,
				counterReport{Label: label, Snapshot: env.Stats.Get(label)})
		}
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtpu-bench: encoding report: %v\n", err)
			return 1
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mtpu-bench: writing report: %v\n", err)
			return 1
		}
	}

	return 0
}

// validateReport strictly decodes a -json report and checks the schema
// invariants: known schema version, non-empty self-description, sane
// per-experiment numbers, and internally consistent counters.
func validateReport(path string) error {
	_, err := decodeReport(path)
	return err
}

// decodeReport is validateReport returning the checked report.
func decodeReport(path string) (*benchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var r benchReport
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("decoding: %w", err)
	}
	if err := checkReport(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// finite rejects NaN and ±Inf — values encoding/json would never emit
// itself, so their presence means the file was edited or produced by a
// non-Go writer, and every downstream plot/comparison would silently
// propagate them.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s is %v, want a finite number", name, v)
	}
	return nil
}

// checkReport enforces the current schema's invariants on a decoded report.
// Split from the file decoding so corruptions JSON cannot represent
// (NaN, ±Inf) are testable by constructing the struct directly.
func checkReport(r *benchReport) error {
	if r.Schema != reportSchema {
		return fmt.Errorf("schema %d, want %d", r.Schema, reportSchema)
	}
	if r.GoVersion == "" {
		return fmt.Errorf("missing go_version")
	}
	// v6: the build fingerprint must at least name the toolchain; VCS
	// fields may legitimately be empty (`go run` embeds no VCS stamp).
	if r.Build.GoVersion == "" {
		return fmt.Errorf("missing build.go_version (schema 6 build fingerprint)")
	}
	if r.Parallel < 1 || r.GOMAXPROCS < 1 {
		return fmt.Errorf("bad worker metadata: parallel=%d gomaxprocs=%d", r.Parallel, r.GOMAXPROCS)
	}
	if r.Arch.NumPUs < 1 {
		return fmt.Errorf("arch snapshot missing (num_pus=%d)", r.Arch.NumPUs)
	}
	if len(r.Experiments) == 0 {
		return fmt.Errorf("no experiments")
	}
	for _, e := range r.Experiments {
		if e.Name == "" {
			return fmt.Errorf("experiment with empty name")
		}
		if err := finite(e.Name+": wall_ms", e.WallMS); err != nil {
			return err
		}
		if err := finite(e.Name+": min_speedup", e.MinSpeedup); err != nil {
			return err
		}
		if err := finite(e.Name+": max_speedup", e.MaxSpeedup); err != nil {
			return err
		}
		if e.WallMS < 0 || e.Points < 0 {
			return fmt.Errorf("%s: negative wall_ms/points", e.Name)
		}
		// A report that claims a sweep artifact ran must carry its rows —
		// this is what catches a schema bump (v8 added sched) without the
		// checked-in file being regenerated.
		if _, ok := gridArtifacts[e.Name]; ok {
			if n := len(gridCells(e.Name, r.Sched)); n != e.Points {
				return fmt.Errorf("%s: %d grid cells for %d points", e.Name, n, e.Points)
			}
		}
		if e.Name == "perf" && len(r.Perf) != e.Points {
			return fmt.Errorf("perf: %d rows for %d points", len(r.Perf), e.Points)
		}
		if e.Name == "scenarios" && len(r.Scenarios) != e.Points {
			return fmt.Errorf("scenarios: %d rows for %d points", len(r.Scenarios), e.Points)
		}
	}
	for _, p := range r.Perf {
		if p.Name == "" {
			return fmt.Errorf("perf row with empty name")
		}
		if p.Txs < 1 || p.Reps < 1 {
			return fmt.Errorf("perf %s: bad volume (txs=%d reps=%d)", p.Name, p.Txs, p.Reps)
		}
		// Every case executes instructions and allocates (a replay
		// returns its result on the heap), so a zero here is a row
		// without its work counts, which the perf gate cannot compare.
		if p.Instructions == 0 || !(p.MallocsPerRep > 0) || !(p.BytesPerRep > 0) {
			return fmt.Errorf("perf %s: missing work counts (instructions=%d mallocs_per_rep=%v bytes_per_rep=%v)",
				p.Name, p.Instructions, p.MallocsPerRep, p.BytesPerRep)
		}
		for _, v := range []struct {
			name string
			val  float64
		}{
			{"wall_ms", p.WallMS}, {"tx_per_sec", p.TxPerSec}, {"instr_per_sec", p.InstrPerSec},
			{"mallocs_per_rep", p.MallocsPerRep}, {"bytes_per_rep", p.BytesPerRep},
		} {
			if err := finite(fmt.Sprintf("perf %s: %s", p.Name, v.name), v.val); err != nil {
				return err
			}
		}
		if p.WallMS <= 0 || p.TxPerSec <= 0 {
			return fmt.Errorf("perf %s: non-positive wall/tx_per_sec", p.Name)
		}
		if p.InstrPerSec < 0 {
			return fmt.Errorf("perf %s: negative instr_per_sec", p.Name)
		}
	}
	cells := map[string]int{}
	for _, p := range r.Sched {
		at := fmt.Sprintf("sched ratio %.1f pus %d", p.TargetRatio, p.PUs)
		if p.PUs < 1 || p.Txs < 1 {
			return fmt.Errorf("%s: bad grid point (txs=%d)", at, p.Txs)
		}
		for _, v := range []struct {
			name string
			val  float64
		}{
			{"target_ratio", p.TargetRatio}, {"dep_ratio", p.DepRatio},
		} {
			if err := finite(at+": "+v.name, v.val); err != nil {
				return err
			}
		}
		if p.Batches < 1 || p.Batches > p.Txs {
			return fmt.Errorf("%s: %d batches for %d txs", at, p.Batches, p.Txs)
		}
		cycles := map[string]uint64{}
		for _, c := range p.Cells {
			for _, v := range []struct {
				name string
				val  float64
			}{
				{"speedup", c.Speedup}, {"utilization", c.Utilization}, {"hit_ratio", c.HitRatio},
			} {
				if err := finite(fmt.Sprintf("%s %s: %s", at, c.Engine, v.name), v.val); err != nil {
					return err
				}
			}
			if c.Engine == "" || c.Cycles == 0 || c.Speedup <= 0 {
				return fmt.Errorf("%s: empty or non-positive cell %+v", at, c)
			}
			cycles[c.Engine] = c.Cycles
			cells[c.Engine]++
		}
		bse, st := cycles[core.ModeBSE.String()], cycles[core.ModeSpatialTemporal.String()]
		if bse > 0 && st > 0 && bse < st {
			return fmt.Errorf("%s: barrier schedule %d cycles beat spatial-temporal %d", at, bse, st)
		}
		makespan, ran := cycles[core.ModeBlockSTM.String()]
		s := p.STM
		if ran != (s != nil) {
			return fmt.Errorf("%s: block-stm cell and stm counters must come together", at)
		}
		if s == nil {
			continue
		}
		// Counter fields are signed in the schema, so a corrupted file can
		// carry negatives the identity checks below would cancel out.
		if s.Txs < 0 || s.Incarnations < 0 || s.Aborts < 0 || s.EstimateAborts < 0 ||
			s.ValidationPasses < 0 || s.ValidationFails < 0 || s.EstimateWaits < 0 {
			return fmt.Errorf("%s: negative counter (%+v)", at, *s)
		}
		if s.Incarnations-s.Aborts != p.Txs {
			return fmt.Errorf("%s: incarnations %d - aborts %d != txs %d", at, s.Incarnations, s.Aborts, p.Txs)
		}
		if s.Aborts != s.EstimateAborts+s.ValidationFails {
			return fmt.Errorf("%s: aborts %d != estimate %d + validation %d",
				at, s.Aborts, s.EstimateAborts, s.ValidationFails)
		}
		if got := s.ExecCycles + s.ValidateCycles + s.IdleCycles; got != uint64(p.PUs)*makespan {
			return fmt.Errorf("%s: cycle terms %d != pus×makespan %d", at, got, uint64(p.PUs)*makespan)
		}
		if s.WastedCycles > s.ExecCycles {
			return fmt.Errorf("%s: wasted %d exceeds exec %d", at, s.WastedCycles, s.ExecCycles)
		}
	}
	for _, p := range r.Scenarios {
		if p.Scenario == "" || p.Engine == "" {
			return fmt.Errorf("scenario row with empty scenario/engine name (%+v)", p)
		}
		if p.PUs < 1 || p.Blocks < 1 || p.Txs < 1 {
			return fmt.Errorf("scenario %s/%s: bad shape (pus=%d blocks=%d txs=%d)",
				p.Scenario, p.Engine, p.PUs, p.Blocks, p.Txs)
		}
		for _, v := range []struct {
			name string
			val  float64
		}{
			{"skew", p.Skew}, {"speedup", p.Speedup}, {"tx_per_sec", p.TxPerSec},
		} {
			if err := finite(fmt.Sprintf("scenario %s/%s: %s", p.Scenario, p.Engine, v.name), v.val); err != nil {
				return err
			}
		}
		if p.Cycles == 0 || p.Speedup <= 0 || p.TxPerSec <= 0 {
			return fmt.Errorf("scenario %s/%s pus %d: empty measurement (cycles=%d speedup=%v tx/s=%v)",
				p.Scenario, p.Engine, p.PUs, p.Cycles, p.Speedup, p.TxPerSec)
		}
	}
	for _, c := range r.Counters {
		if c.Label == "" {
			return fmt.Errorf("counter snapshot with empty label")
		}
		if c.Points <= 0 {
			return fmt.Errorf("%s: counter snapshot without points", c.Label)
		}
		// A grid counter records one replay per cell, so a grid replayed
		// twice in one run shows as a doubled count.
		if engine, ok := strings.CutPrefix(c.Label, "sched/"); ok && len(r.Sched) > 0 && c.Points != cells[engine] {
			return fmt.Errorf("%s: %d points for %d grid cells", c.Label, c.Points, cells[engine])
		}
		if c.Cycles == 0 {
			return fmt.Errorf("%s: counter snapshot without cycles", c.Label)
		}
		p := c.Pipeline
		if p.IssueCycles > p.Cycles {
			return fmt.Errorf("%s: issue cycles %d exceed total cycles %d", c.Label, p.IssueCycles, p.Cycles)
		}
		if p.HitInstructions > p.Instructions {
			return fmt.Errorf("%s: hit instructions %d exceed instructions %d", c.Label, p.HitInstructions, p.Instructions)
		}
		if p.LineEvictions > p.LinesCached {
			return fmt.Errorf("%s: evictions %d exceed fills %d", c.Label, p.LineEvictions, p.LinesCached)
		}
	}
	if err := finite("total_wall_ms", r.TotalWallMS); err != nil {
		return err
	}
	if r.TotalWallMS < 0 {
		return fmt.Errorf("negative total_wall_ms %v", r.TotalWallMS)
	}
	return nil
}

// perfAllocTolerance is how far a perf point's mallocs and bytes per
// repetition may move from the baseline in either direction. Both are
// stable to well under 0.1 % between runs and under any host load (they
// count allocations, not time), so 5 % is a real change in the work.
const perfAllocTolerance = 0.05

// gatePerf compares freshly measured perf points against the committed
// baseline report, decoded and checked as -validate does, and fails when
// any point's work moved (see comparePerf).
func gatePerf(baselinePath string, points []experiments.PerfPoint) error {
	base, err := decodeReport(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	if len(base.Perf) == 0 {
		return fmt.Errorf("baseline %s carries no perf rows (regenerate it with the perf artifact)", baselinePath)
	}
	if diffs := comparePerf(base.Perf, points); len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, "  "+d)
		}
		return fmt.Errorf("%d difference(s) from the %s baseline (listed above); a change that moves the work "+
			"by design regenerates the baseline", len(diffs), baselinePath)
	}
	return nil
}

// comparePerf lists every way the measured points differ from the
// baseline's: a point on one side only, any simulated count (txs,
// instructions, cycles, refill scans) not exactly equal, or mallocs or
// bytes per repetition off by more than perfAllocTolerance. Host rates
// are not compared.
func comparePerf(base, measured []experiments.PerfPoint) []string {
	var diffs []string
	byName := make(map[string]experiments.PerfPoint, len(base))
	for _, b := range base {
		byName[b.Name] = b
	}
	for _, m := range measured {
		b, ok := byName[m.Name]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: not in the baseline", m.Name))
			continue
		}
		delete(byName, m.Name)
		for _, c := range []struct {
			name      string
			base, got uint64
		}{
			{"txs", uint64(b.Txs), uint64(m.Txs)},
			{"instructions", b.Instructions, m.Instructions},
			{"cycles", b.Cycles, m.Cycles},
			{"refill_scans", b.RefillScans, m.RefillScans},
		} {
			if c.base != c.got {
				diffs = append(diffs, fmt.Sprintf("%s: %s %d, baseline %d", m.Name, c.name, c.got, c.base))
			}
		}
		for _, c := range []struct {
			name      string
			base, got float64
		}{
			{"mallocs_per_rep", b.MallocsPerRep, m.MallocsPerRep},
			{"bytes_per_rep", b.BytesPerRep, m.BytesPerRep},
		} {
			if !(math.Abs(c.got-c.base) <= perfAllocTolerance*c.base) {
				diffs = append(diffs, fmt.Sprintf("%s: %s %.1f, baseline %.1f (%+.1f%%, limit ±%.0f%%)",
					m.Name, c.name, c.got, c.base, 100*(c.got/c.base-1), 100*perfAllocTolerance))
			}
		}
	}
	for _, b := range base {
		if _, missed := byName[b.Name]; missed {
			diffs = append(diffs, fmt.Sprintf("%s: in the baseline but not measured", b.Name))
		}
	}
	return diffs
}

// gridArtifacts names the engines whose grid cells each scheduling
// artifact prints; its points and speedup range cover exactly those cells.
var gridArtifacts = map[string][]core.Mode{
	"fig14":     {core.ModeSynchronous, core.ModeSpatialTemporal},
	"fig15":     {core.ModeSynchronous, core.ModeSpatialTemporal},
	"fig16":     {core.ModeSTRedundancy, core.ModeSTHotspot},
	"baselines": {core.ModeBlockSTM, core.ModeBSE},
}

// gridCells returns the cells of the artifact's engines in grid order.
func gridCells(artifact string, pts []experiments.SchedPoint) []experiments.SchedCell {
	var out []experiments.SchedCell
	for _, p := range pts {
		for _, c := range p.Cells {
			for _, m := range gridArtifacts[artifact] {
				if c.Engine == m.String() {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// schedResult summarizes a grid artifact's speedup range over its cells.
func schedResult(artifact, out string, pts []experiments.SchedPoint) artifactResult {
	var r spdRange
	for _, c := range gridCells(artifact, pts) {
		r.add(c.Speedup)
	}
	return artifactResult{output: out, points: r.n, minSpd: r.min, maxSpd: r.max}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: mtpu-bench [-seed N] [-parallel N] [-stats] [-json FILE] ARTIFACT
       mtpu-bench -validate FILE
ARTIFACT is one of:
  table1    SCT count share vs execution-overhead share
  table2    bytecode share of the loaded context
  table6    instruction breakdown of the TOP-8 contracts
  fig12     ILP upper bound (F&D / +DF / +IF)
  fig13     DB-cache hit ratio vs size
  table7    single PU at 2K entries vs upper limit
  fig14     speedup: synchronous vs spatio-temporal
  fig15     PU utilization for the same sweep
  fig16     speedup with redundancy and hotspot optimization
  table8    BPU vs MTPU single core (ERC-20 share sweep)
  table9    BPU vs MTPU quad core (dependency sweep)
  chunking  hotspot chunking / pre-execution / prefetch report
  ablation  one-at-a-time design-choice ablations
  baselines Block-STM and batch-schedule-execute vs DAG-driven
            scheduling (the fig14-16 grid at 2/4/8 PUs x dep 0/.3/.6/1)
  scenarios mainnet-shaped Zipfian scenario chains (erc20-mix, dex,
            nft-mint, airdrop, oracle) on every engine at each PU count
  perf      simulator hot loop: work per repetition (instructions,
            cycles, refill scans, mallocs, bytes) and host tx/s
  all       everything above
registered execution engines: `+strings.Join(engine.Names(), ", ")+`
flags:
  -seed N      workload generator seed (default the ISCA'23 seed)
  -parallel N  worker goroutines per experiment; <=0 uses GOMAXPROCS.
               Output is byte-identical at every setting.
  -stats       collect per-experiment counter snapshots; printed as a
               summary table and merged into the -json report
  -json FILE   write wall-clock/points/speedup summary as JSON, with
               run metadata (schema, go version, arch config)
  -validate F  strictly decode a -json report, check the schema
               invariants, and exit
  -perf-baseline F  after running, compare the perf artifact's work
               counts against the committed report F and fail, listing
               each difference, unless every simulated count is equal
               and mallocs and bytes per repetition are within 5%
  -perf-only S run only perf points whose name contains S
  -perf-wall D per-point measurement budget of the perf artifact
  -telemetry-addr A  serve live metrics on A while running
               (/metrics Prometheus text, /snapshot JSON, /debug/vars,
               /debug/pprof)
  -version     print build information and exit
  -cpuprofile F  write a pprof CPU profile of the run
  -memprofile F  write a pprof heap profile at exit
  -blockprofile F  write a goroutine-blocking profile at exit
  -mutexprofile F  write a mutex-contention profile at exit`)
}
