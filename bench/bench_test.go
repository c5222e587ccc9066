package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestPhases runs every phase on an 8-block stream of each workload
// shape and holds the run to the verification rules: runWorkload records
// a violated rule (reference digests, replay-cycle identity, counter
// identities and shadow failures, generator lateness, span coverage) as
// an error, so a correct result means all of them held.
func TestPhases(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.n, w.k, w.passes = 8, 8, 1
			traceOut := filepath.Join(t.TempDir(), "trace.json")
			res := runWorkload(w, 1, 2, traceOut)
			if res.pacedLate {
				// A host too slow for the schedule (a -race build, say)
				// makes the paced phase invalid, not the harness wrong.
				t.Skipf("paced schedule not held on this host: %v", res.Errors)
			}
			for _, e := range res.Errors {
				t.Error(e)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 3*8 {
				t.Fatalf("correct=%v attempted=%d failed=%d, want true %d 0", res.Correct, res.Attempted, res.Failed, 3*8)
			}
			if c := res.PerLayer["trace.span_coverage"]; c < 0.99 || c > 1 {
				t.Errorf("trace.span_coverage = %v, want within [0.99, 1]", c)
			}
			if res.Digests["paced"] != res.Digests["traced"] || res.Digests["sync"] == "" {
				t.Errorf("head digests %v: paced and traced cover the same blocks", res.Digests)
			}
			assertNames(t, "end-to-end", names(endToEnd), keys(res.EndToEnd))
			assertNames(t, "per-layer", names(perLayer), keys(res.PerLayer))
			for _, m := range endToEnd {
				if res.EndToEnd[m.name] <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, res.EndToEnd[m.name])
				}
			}

			buf, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Name string         `json:"name"`
					Args map[string]int `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf, &trace); err != nil {
				t.Fatal(err)
			}
			// Per block: the block span, nine serial spans, two
			// outside-wall spans, and the oracle check on block 0.
			if want := 8*(1+len(serialSpans)+2) + 1; len(trace.TraceEvents) != want {
				t.Errorf("%d trace events, want %d", len(trace.TraceEvents), want)
			}
		})
	}
}

// TestManifest holds BENCHMARK.json to the names and units the program
// prints: none undeclared, none missing.
func TestManifest(t *testing.T) {
	m, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	var declared []string
	for _, w := range m.Workloads {
		declared = append(declared, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	assertNames(t, "workloads", defined, declared)

	check := func(section string, defs []metric, decl []manifestMetric) {
		units := map[string]string{}
		var got []string
		for _, d := range decl {
			got = append(got, d.Name)
			units[d.Name] = d.Unit
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %s: better = %q", section, d.Name, d.Better)
			}
			if d.Bound < 0 || d.Bound > 0.25 {
				t.Errorf("%s %s: bound %v outside [0, 0.25]", section, d.Name, d.Bound)
			}
		}
		assertNames(t, section, names(defs), got)
		for _, d := range defs {
			if units[d.name] != d.unit {
				t.Errorf("%s %s: unit %q declared, %q printed", section, d.name, units[d.name], d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, m.EndToEnd)
	check("per_layer", perLayer, m.PerLayer)
	for _, d := range m.EndToEnd {
		if d.Bound == 0 {
			t.Errorf("end_to_end %s has no bound", d.Name)
		}
	}
}

func TestCompare(t *testing.T) {
	m, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	base := func() *resultFile {
		r := &result{Workload: "token-dep30", Attempted: 100, Digests: map[string]string{"sync": "0xaa"},
			EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
		for _, d := range endToEnd {
			r.EndToEnd[d.name] = 10
		}
		for _, d := range perLayer {
			r.PerLayer[d.name] = 10
		}
		return &resultFile{Workloads: []*result{r}}
	}
	cases := []struct {
		name   string
		mutate func(r *result)
		want   int
	}{
		{"identical", func(r *result) {}, 0},
		{"host time within bound", func(r *result) { r.EndToEnd["sync_blocks_per_s"] = 9.9 }, 0},
		{"throughput beyond bound", func(r *result) { r.EndToEnd["sync_blocks_per_s"] = 5 }, 1},
		{"latency beyond bound", func(r *result) { r.EndToEnd["paced_latency_p50_ms"] = 20 }, 1},
		{"latency better", func(r *result) { r.EndToEnd["paced_latency_p50_ms"] = 5 }, 0},
		{"set-up worse but under the floor", func(r *result) { r.EndToEnd["setup_s"] = 10.19 }, 0},
		{"exact end-to-end metric moved", func(r *result) { r.EndToEnd["sim_cycles_per_tx"] = 9.999 }, 1},
		{"exact counter moved", func(r *result) { r.PerLayer["pipeline.ipc"] = 10.001 }, 1},
		{"host layer time moved", func(r *result) { r.PerLayer["core.prepare_us_per_block"] = 99 }, 0},
		{"digest differs", func(r *result) { r.Digests["sync"] = "0xbb" }, 1},
		{"failure ratio rose", func(r *result) { r.Failed = 1 }, 1},
		{"metric missing", func(r *result) { delete(r.EndToEnd, "paced_latency_p90_ms") }, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := base()
			c.mutate(b.Workloads[0])
			if got := compare(m, base(), b); got != c.want {
				t.Errorf("compare exit code %d, want %d", got, c.want)
			}
		})
	}
}

func TestScaled(t *testing.T) {
	for _, w := range workloads {
		if s := w.scaled(defaultSeconds); s != w {
			t.Errorf("%s: scaling to the default length changed it: %+v", w.name, s)
		}
		// The shortest run still leaves the percentiles ten samples.
		if s := w.scaled(1); s.k < 2*warmupBlocks || s.n < 2*warmupBlocks {
			t.Errorf("%s at 1 s: n=%d k=%d, want both ≥ %d", w.name, s.n, s.k, 2*warmupBlocks)
		}
	}
}

func names(defs []metric) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	return out
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// assertNames requires got and want to be the same set of well-formed,
// unique names.
func assertNames(t *testing.T, what string, want, got []string) {
	t.Helper()
	sort.Strings(want)
	sort.Strings(got)
	for i, n := range got {
		if !nameRE.MatchString(n) {
			t.Errorf("%s: name %q is malformed", what, n)
		}
		if i > 0 && got[i-1] == n {
			t.Errorf("%s: name %q is used twice", what, n)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s: %d names, want %d:\n got  %v\n want %v", what, len(got), len(want), got, want)
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: name %q, want %q", what, got[i], want[i])
		}
	}
}
