package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/experiments"
	"mtpu/internal/telemetry"
)

// loadArtifact decodes the checked-in sweep artifact into a generic
// tree the corruption cases can edit before re-marshalling.
func loadArtifact(t *testing.T) map[string]any {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sweeps.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func writeDoc(t *testing.T, doc map[string]any) string {
	t.Helper()
	buf, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func firstRow(t *testing.T, doc map[string]any, key string) map[string]any {
	t.Helper()
	rows, ok := doc[key].([]any)
	if !ok || len(rows) == 0 {
		t.Fatalf("artifact has no %q rows", key)
	}
	row, ok := rows[0].(map[string]any)
	if !ok {
		t.Fatalf("%s[0] is not an object", key)
	}
	return row
}

// TestValidateAcceptsCheckedInArtifact pins the baseline: the repo's own
// artifacts must stay valid or the corruption cases prove nothing, and a
// schema bump must regenerate both.
func TestValidateAcceptsCheckedInArtifact(t *testing.T) {
	for _, name := range []string{"BENCH_sweeps.json", "BENCH_perf.json"} {
		if err := validateReport(filepath.Join("..", "..", name)); err != nil {
			t.Errorf("checked-in %s rejected: %v", name, err)
		}
	}
}

// TestValidateRejectsCorruptedArtifact feeds single-field corruptions of
// the real BENCH_sweeps.json through -validate's code path.
func TestValidateRejectsCorruptedArtifact(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(*testing.T, map[string]any)
		wantMsg string
	}{
		{"negative stm counter", func(t *testing.T, doc map[string]any) {
			var stats map[string]any
			for _, row := range doc["sched"].([]any) {
				if s, ok := row.(map[string]any)["stm"].(map[string]any); ok {
					stats = s
					break
				}
			}
			if stats == nil {
				t.Fatal("artifact has no sched row with stm counters")
			}
			// Shift both terms of the commit identity negative so only the
			// sign check can object.
			stats["incarnations"] = float64(-1)
			stats["aborts"] = -1 - stats["txs"].(float64)
			stats["estimate_aborts"] = stats["aborts"]
			stats["validation_fails"] = float64(0)
		}, "negative counter"},
		{"negative wall clock", func(t *testing.T, doc map[string]any) {
			doc["total_wall_ms"] = float64(-4)
		}, "total_wall_ms"},
		{"negative experiment points", func(t *testing.T, doc map[string]any) {
			firstRow(t, doc, "experiments")["points"] = float64(-3)
		}, "negative"},
		{"unknown field", func(t *testing.T, doc map[string]any) {
			doc["warp_factor"] = float64(9)
		}, "unknown field"},
		{"wrong schema", func(t *testing.T, doc map[string]any) {
			doc["schema"] = float64(3)
		}, "schema"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := loadArtifact(t)
			tc.corrupt(t, doc)
			err := validateReport(writeDoc(t, doc))
			if err == nil {
				t.Fatal("corrupted artifact accepted")
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// TestCheckReportRejectsNonFinite covers the corruptions JSON cannot
// carry: NaN and ±Inf land in the struct directly (e.g. from a future
// non-JSON ingest path) and must still be rejected.
func TestCheckReportRejectsNonFinite(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sweeps.json"))
	if err != nil {
		t.Fatal(err)
	}
	base := func(t *testing.T) *benchReport {
		var r benchReport
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		return &r
	}
	if err := checkReport(base(t)); err != nil {
		t.Fatalf("baseline rejected: %v", err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*benchReport)
	}{
		{"NaN stm speedup", func(r *benchReport) { gridCell(t, r, "block-stm").Speedup = math.NaN() }},
		{"+Inf bse speedup", func(r *benchReport) { gridCell(t, r, "batch-schedule-execute").Speedup = math.Inf(1) }},
		{"NaN utilization", func(r *benchReport) { gridCell(t, r, "spatial-temporal").Utilization = math.NaN() }},
		{"-Inf dep ratio", func(r *benchReport) { r.Sched[0].DepRatio = math.Inf(-1) }},
		{"NaN wall_ms", func(r *benchReport) { r.Experiments[0].WallMS = math.NaN() }},
		{"NaN total", func(r *benchReport) { r.TotalWallMS = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := base(t)
			tc.corrupt(r)
			err := checkReport(r)
			if err == nil {
				t.Fatal("non-finite value accepted")
			}
			if !strings.Contains(err.Error(), "finite") {
				t.Errorf("error %q does not mention finiteness", err)
			}
		})
	}
}

// gridCell returns the report's first grid cell of engine.
func gridCell(t *testing.T, r *benchReport, engine string) *experiments.SchedCell {
	t.Helper()
	for i := range r.Sched {
		for j := range r.Sched[i].Cells {
			if c := &r.Sched[i].Cells[j]; c.Engine == engine {
				return c
			}
		}
	}
	t.Fatalf("report has no %s cell", engine)
	return nil
}

// TestCheckReportRejectsDoubledGridCounter: a sched/<engine> counter
// records one replay per grid cell, so a run that replays the grid
// twice — as fig15 once did by re-running Fig. 14's sweep — is
// rejected, and the engine's true cell count is accepted.
func TestCheckReportRejectsDoubledGridCounter(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sweeps.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		engine string
		cells  int
	}{
		{"synchronous", 44}, {"spatial-temporal+redundancy+hotspot", 44}, {"block-stm", 12}, {"batch-schedule-execute", 12},
	} {
		for _, points := range []int{tc.cells, 2 * tc.cells} {
			var r benchReport
			if err := json.Unmarshal(data, &r); err != nil {
				t.Fatal(err)
			}
			r.Counters = []counterReport{{Label: "sched/" + tc.engine,
				Snapshot: experiments.Snapshot{Points: points, Cycles: 1}}}
			err := checkReport(&r)
			if points == tc.cells && err != nil {
				t.Errorf("%s at its %d cells rejected: %v", tc.engine, points, err)
			}
			if points != tc.cells && (err == nil || !strings.Contains(err.Error(), "grid cells")) {
				t.Errorf("%s at %d points for %d cells: err %v", tc.engine, points, tc.cells, err)
			}
		}
	}
}

// benchMain invokes realMain with a fresh global flag set, restoring
// process state afterwards.
func benchMain(t *testing.T, args ...string) int {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	flag.CommandLine = flag.NewFlagSet("mtpu-bench", flag.ExitOnError)
	os.Args = append([]string{"mtpu-bench"}, args...)
	return realMain()
}

// TestUnwritableJSONExitsNonzero: a bench run whose -json report cannot
// be written must exit non-zero — and because realMain returns instead
// of calling os.Exit, the deferred profile flush still ran.
func TestUnwritableJSONExitsNonzero(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	code := benchMain(t, "-json", filepath.Join(blocker, "report.json"), "table1")
	if code == 0 {
		t.Fatal("unwritable -json path exited 0")
	}
}

// perfReport is a minimal valid report around the given perf rows.
func perfReport(points []experiments.PerfPoint) *benchReport {
	return &benchReport{
		Schema: reportSchema, GoVersion: "go1", Build: telemetry.BuildInfo{GoVersion: "go1"},
		Parallel: 1, GOMAXPROCS: 1, Arch: arch.DefaultConfig(),
		Experiments: []experimentReport{{Name: "perf", WallMS: 1, Points: len(points)}},
		Perf:        points, TotalWallMS: 1,
	}
}

// TestPerfGate drives the perf gate from a synthetic baseline file and
// measured rows: every simulated count must match exactly, allocations
// within 5 %, host rates never gate, and a baseline without the counts
// is an error rather than a pass.
func TestPerfGate(t *testing.T) {
	rows := func() []experiments.PerfPoint {
		return []experiments.PerfPoint{
			{Name: "replay", Txs: 192, Instructions: 19189, Cycles: 16500, RefillScans: 54720,
				MallocsPerRep: 1000, BytesPerRep: 40000, Reps: 500, WallMS: 250, TxPerSec: 4e5, InstrPerSec: 4e7},
			{Name: "fold", Txs: 32, Instructions: 3219,
				MallocsPerRep: 2269, BytesPerRep: 9e5, Reps: 200, WallMS: 250, TxPerSec: 2.5e4, InstrPerSec: 2.5e6},
		}
	}
	write := func(r *benchReport) string {
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	baseline := write(perfReport(rows()))
	for _, tc := range []struct {
		name   string
		edit   func(p []experiments.PerfPoint) []experiments.PerfPoint
		wantOK bool
	}{
		{"identical", nil, true},
		{"instructions +1", func(p []experiments.PerfPoint) []experiments.PerfPoint { p[0].Instructions++; return p }, false},
		{"cycles -1", func(p []experiments.PerfPoint) []experiments.PerfPoint { p[0].Cycles--; return p }, false},
		{"refill scans +1", func(p []experiments.PerfPoint) []experiments.PerfPoint { p[0].RefillScans++; return p }, false},
		{"fold cycles +1", func(p []experiments.PerfPoint) []experiments.PerfPoint { p[1].Cycles++; return p }, false},
		{"mallocs +6%", func(p []experiments.PerfPoint) []experiments.PerfPoint { p[0].MallocsPerRep *= 1.06; return p }, false},
		{"mallocs +4%", func(p []experiments.PerfPoint) []experiments.PerfPoint { p[0].MallocsPerRep *= 1.04; return p }, true},
		{"mallocs -6%", func(p []experiments.PerfPoint) []experiments.PerfPoint { p[1].MallocsPerRep *= 0.94; return p }, false},
		{"bytes +6%", func(p []experiments.PerfPoint) []experiments.PerfPoint { p[1].BytesPerRep *= 1.06; return p }, false},
		{"bytes +4%", func(p []experiments.PerfPoint) []experiments.PerfPoint { p[1].BytesPerRep *= 1.04; return p }, true},
		{"tx/s at 0.1x", func(p []experiments.PerfPoint) []experiments.PerfPoint {
			for i := range p {
				p[i].TxPerSec *= 0.1
				p[i].InstrPerSec *= 0.1
				p[i].WallMS *= 10
			}
			return p
		}, true},
		{"point missing", func(p []experiments.PerfPoint) []experiments.PerfPoint { return p[:1] }, false},
		{"point added", func(p []experiments.PerfPoint) []experiments.PerfPoint {
			return append(p, experiments.PerfPoint{Name: "new", Txs: 1, Instructions: 1, MallocsPerRep: 1, BytesPerRep: 1})
		}, false},
	} {
		measured := rows()
		if tc.edit != nil {
			measured = tc.edit(measured)
		}
		err := gatePerf(baseline, measured)
		if tc.wantOK && err != nil {
			t.Errorf("%s: gate failed: %v", tc.name, err)
		}
		if !tc.wantOK && err == nil {
			t.Errorf("%s: gate passed", tc.name)
		}
	}

	// A baseline whose perf rows predate the work counts.
	old := rows()
	for i := range old {
		old[i].Cycles, old[i].RefillScans, old[i].MallocsPerRep, old[i].BytesPerRep = 0, 0, 0, 0
	}
	if err := gatePerf(write(perfReport(old)), rows()); err == nil || !strings.Contains(err.Error(), "missing work counts") {
		t.Errorf("baseline without work counts: err %v", err)
	}
	if err := gatePerf(write(perfReport(nil)), rows()); err == nil {
		t.Error("baseline without perf rows passed")
	}
}

// hostFields are the report fields that describe the host a sweep ran
// on — wall-clock times, the rates derived from them, the repetitions a
// fixed wall budget bought, the toolchain, and the perf rows' allocation
// counts, which move with the toolchain — rather than the simulated
// machine. Everything else in a report is a pure function of
// (seed, parallel).
var hostFields = map[string]bool{
	"wall_ms": true, "total_wall_ms": true, "tx_per_sec": true,
	"reps": true, "instr_per_sec": true,
	"go_version": true, "build": true, "gomaxprocs": true,
	"mallocs_per_rep": true, "bytes_per_rep": true,
}

// firstDifference returns the path of the first field, in sorted key
// order, at which two decoded reports differ outside hostFields, or ""
// when there is none.
func firstDifference(a, b any, path string) string {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			return path
		}
		keys := map[string]bool{}
		for k := range av {
			keys[k] = true
		}
		for k := range bv {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			if !hostFields[k] {
				sorted = append(sorted, k)
			}
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			x, inA := av[k]
			y, inB := bv[k]
			if !inA || !inB {
				return path + "." + k
			}
			if d := firstDifference(x, y, path+"."+k); d != "" {
				return d
			}
		}
		return ""
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return path
		}
		for i := range av {
			if d := firstDifference(av[i], bv[i], fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		return ""
	}
	if !reflect.DeepEqual(a, b) {
		return path
	}
	return ""
}

// TestSweepsIdentical is the same-machine contract, checked instead of
// hand-checked (make sweeps-identical): regenerating the full report
// with the committed seed and parallelism must reproduce every cycle,
// digest-derived speedup and counter of BENCH_sweeps.json. A change
// that means to move a simulated number regenerates the file.
func TestSweepsIdentical(t *testing.T) {
	want := loadArtifact(t)
	seed, parallel := want["seed"].(float64), want["parallel"].(float64)
	out := filepath.Join(t.TempDir(), "sweeps.json")
	if code := benchMain(t, "-seed", strconv.FormatInt(int64(seed), 10),
		"-parallel", strconv.Itoa(int(parallel)), "-json", out, "all"); code != 0 {
		t.Fatalf("mtpu-bench all exited %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if d := firstDifference(want, got, ""); d != "" {
		t.Fatalf("regenerated report differs from BENCH_sweeps.json at %s", d)
	}
}

// TestFirstDifference pins the comparison itself: host fields are
// ignored at every depth, and a moved simulated field, a missing field
// and a changed row count are each reported by path.
func TestFirstDifference(t *testing.T) {
	base := func() map[string]any {
		return map[string]any{
			"seed": 1.0, "total_wall_ms": 10.0, "build": map[string]any{"go_version": "go1"},
			"sched": []any{map[string]any{"wall_ms": 3.0,
				"cells": []any{map[string]any{"engine": "block-stm", "cycles": 7.0}}}},
		}
	}
	cell := func(doc map[string]any) map[string]any {
		return doc["sched"].([]any)[0].(map[string]any)["cells"].([]any)[0].(map[string]any)
	}
	host := base()
	host["total_wall_ms"] = 99.0
	host["build"] = "other"
	host["sched"].([]any)[0].(map[string]any)["wall_ms"] = 4.0
	if d := firstDifference(base(), host, ""); d != "" {
		t.Fatalf("host-only change reported at %s", d)
	}
	moved := base()
	cell(moved)["cycles"] = 8.0
	if d := firstDifference(base(), moved, ""); d != ".sched[0].cells[0].cycles" {
		t.Fatalf("moved cycle count reported at %q", d)
	}
	missing := base()
	delete(missing, "seed")
	if d := firstDifference(base(), missing, ""); d != ".seed" {
		t.Fatalf("missing field reported at %q", d)
	}
	shorter := base()
	shorter["sched"] = []any{}
	if d := firstDifference(base(), shorter, ""); d != ".sched" {
		t.Fatalf("changed row count reported at %q", d)
	}
}
