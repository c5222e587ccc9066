package difftest

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mtpu/internal/core"
	"mtpu/internal/engine"
	"mtpu/internal/workload"
)

// TestDiffGrid is the diff-smoke sweep: every registered engine over the
// checked-in spec grid, all oracle checks on. `make diff-smoke` runs it
// under -race.
func TestDiffGrid(t *testing.T) {
	specs, err := LoadGrid(filepath.Join("testdata", "grid.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 40 {
		t.Fatalf("grid has %d specs, the sweep promises at least 40", len(specs))
	}
	// Every adversarial corner shape must stay in the grid, and every
	// mainnet-shaped scenario stream with it.
	covered := map[string]bool{}
	for _, s := range specs {
		covered[label(s.Workload)] = true
	}
	for _, kind := range workload.SpecKinds {
		if kind == "sct" || kind == "erc20" {
			continue // useful sweeps, but not required corners
		}
		if !covered[kind] {
			t.Errorf("grid covers no %q workload", kind)
		}
	}
	for _, name := range workload.Scenarios {
		if !covered["scenario-"+name] {
			t.Errorf("grid covers no %q scenario", name)
		}
	}
	if !covered["stream"] {
		t.Error("grid covers no token chain")
	}

	// When MTPU_DIFF_REPRO_DIR is set (CI does), every divergence is
	// shrunk and written there so the run's artifact holds ready-made
	// `mtpu-run -diff` reproducers.
	reproDir := os.Getenv("MTPU_DIFF_REPRO_DIR")
	h := &Harness{}
	for i, spec := range specs {
		t.Run(label(spec.Workload)+"/"+itoa(i), func(t *testing.T) {
			t.Parallel()
			fails, err := h.Run(spec)
			if err != nil {
				t.Fatalf("spec %s: %v", spec, err)
			}
			for _, f := range fails {
				t.Errorf("%v", f)
				if reproDir == "" {
					continue
				}
				if out, werr := h.WriteReproducer(reproDir, f); werr != nil {
					t.Logf("writing reproducer: %v", werr)
				} else {
					t.Logf("shrunk reproducer: %s", out)
				}
			}
		})
	}
}

// TestCorpusSeedsPass: the checked-in corner seeds replay green (a red
// seed would mean a known-unfixed divergence slipped into the corpus).
func TestCorpusSeedsPass(t *testing.T) {
	specs, err := CorpusSpecs(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("empty fuzz seed corpus")
	}
	h := &Harness{}
	for _, spec := range specs {
		if fails, err := h.Run(spec); err != nil {
			t.Errorf("%s: %v", spec, err)
		} else {
			for _, f := range fails {
				t.Errorf("%v", f)
			}
		}
	}
}

// injectScheduleBug is the deliberately-injected scheduler bug of the
// mutation test: the latest-starting dispatch is moved to cycle 0, in
// front of the dependencies it was scheduled behind.
func injectScheduleBug(target engine.Mode) func(engine.Mode, *core.Result) {
	return func(m engine.Mode, res *core.Result) {
		if m != target {
			return
		}
		ds := res.Sched.Dispatches
		if len(ds) < 2 {
			return
		}
		last := 0
		for i, d := range ds {
			if d.Start > ds[last].Start {
				last = i
			}
		}
		if ds[last].Start == 0 {
			return // already first; nothing to corrupt
		}
		ds[last].Start = 0
	}
}

// TestMutationCaughtAndShrunk: a scheduler bug injected into the
// spatial-temporal engine's result is caught by the harness and shrunk
// to a reproducer of at most 8 transactions — the acceptance bar for the
// whole differential setup.
func TestMutationCaughtAndShrunk(t *testing.T) {
	st, err := engine.Parse("spatial-temporal")
	if err != nil {
		t.Fatal(err)
	}
	h := &Harness{Modes: []engine.Mode{st}, Mutate: injectScheduleBug(st)}

	spec := Spec{Workload: workload.Spec{Kind: "chain", Txs: 32, Seed: 11}, PUs: 4}
	fails, err := h.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 1 {
		t.Fatalf("injected scheduler bug produced %d failures, want 1", len(fails))
	}
	if fails[0].Engine != "spatial-temporal" {
		t.Fatalf("failure attributed to %s", fails[0].Engine)
	}

	shrunk := h.Shrink(fails[0])
	kept := shrunk.Workload.Txs - len(shrunk.Workload.Drop)
	if kept > 8 {
		t.Errorf("shrunk reproducer keeps %d transactions, want <= 8", kept)
	}
	if shrunk.PUs != 1 {
		t.Errorf("shrunk reproducer still uses %d PUs", shrunk.PUs)
	}

	// The shrunk spec still reproduces under the bug…
	if fs, err := h.Run(shrunk); err != nil || len(fs) == 0 {
		t.Errorf("shrunk spec does not reproduce (err=%v, %d failures)", err, len(fs))
	}
	// …and is green on the unmutated engine, so the bug is the engine's.
	clean := &Harness{Modes: []engine.Mode{st}}
	if fs, err := clean.Run(shrunk); err != nil {
		t.Errorf("shrunk spec unrunnable without the bug: %v", err)
	} else if len(fs) != 0 {
		t.Errorf("shrunk spec fails even without the bug: %v", fs[0])
	}
}

// TestMutationDigestCorruption: a corrupted state digest (the classic
// "wrong answer, plausible schedule" bug) is also caught.
func TestMutationDigestCorruption(t *testing.T) {
	st, err := engine.Parse("spatial-temporal")
	if err != nil {
		t.Fatal(err)
	}
	h := &Harness{Modes: []engine.Mode{st}, Mutate: func(m engine.Mode, res *core.Result) {
		res.StateDigest[0] ^= 0xff
	}}
	fails, err := h.Run(Spec{Workload: workload.Spec{Kind: "token", Txs: 8, Dep: 0.5, Seed: 21}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 1 || !strings.Contains(fails[0].Err.Error(), "digest") {
		t.Fatalf("digest corruption not caught: %v", fails)
	}
}

// TestDDMin: the reducer isolates a non-adjacent failing pair.
func TestDDMin(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	probes := 0
	got := ddmin(items, func(keep []int) bool {
		probes++
		has3, has7 := false, false
		for _, k := range keep {
			has3 = has3 || k == 3
			has7 = has7 || k == 7
		}
		return has3 && has7
	})
	if !reflect.DeepEqual(got, []int{3, 7}) {
		t.Fatalf("ddmin kept %v, want [3 7] (%d probes)", got, probes)
	}
}

// TestWriteReproducer: a failure round-trips through the corpus file
// format with its triage context, and the file name carries the
// engine, the workload's label and the seed — for a chained spec too,
// whose label sets it apart from a single block of the same kind.
func TestWriteReproducer(t *testing.T) {
	st, err := engine.Parse("spatial-temporal")
	if err != nil {
		t.Fatal(err)
	}
	h := &Harness{Modes: []engine.Mode{st}, Mutate: injectScheduleBug(st)}
	fails, err := h.Run(Spec{Workload: workload.Spec{Kind: "chain", Txs: 16, Seed: 31}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 1 {
		t.Fatalf("%d failures, want 1", len(fails))
	}
	dir := t.TempDir()
	path, err := h.WriteReproducer(dir, fails[0])
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"engine": "spatial-temporal"`) {
		t.Errorf("reproducer misses the engine name:\n%s", data)
	}
	spec, err := ParseSpecFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Workload.Kind != "chain" {
		t.Errorf("reproducer spec kind %q", spec.Workload.Kind)
	}
	// The bare-Spec form parses too, and junk fields are rejected.
	if _, err := ParseSpecFile([]byte(`{"workload":{"kind":"token","txs":4,"seed":1}}`)); err != nil {
		t.Errorf("bare spec rejected: %v", err)
	}
	if _, err := ParseSpecFile([]byte(`{"workload":{"kind":"token","txs":4,"seed":1},"warp":2}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if got, want := filepath.Base(path), "diff-spatial-temporal-chain-31.json"; got != want {
		t.Errorf("reproducer named %s, want %s", got, want)
	}

	chained := Spec{Workload: workload.Spec{Kind: "dex", Blocks: 2, Txs: 12, Skew: 1.2, Seed: 77}, PUs: 4}
	fails, err = h.Run(chained)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) == 0 {
		t.Fatal("injected scheduler bug not caught on the chained spec")
	}
	path, err = h.WriteReproducer(dir, fails[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := filepath.Base(path), "diff-spatial-temporal-scenario-dex-77.json"; got != want {
		t.Errorf("chained reproducer named %s, want %s", got, want)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec, err = ParseSpecFile(data); err != nil {
		t.Fatal(err)
	} else if spec.Workload.Kind != "dex" || spec.Workload.Blocks < 1 || spec.Workload.Seed != 77 {
		t.Errorf("chained reproducer spec %s", spec)
	}

	// A token chain and a single token block with the same seed write
	// two files: neither reproducer overwrites the other.
	for _, c := range []struct {
		w    workload.Spec
		want string
	}{
		{workload.Spec{Kind: "token", Txs: 16, Dep: 0.5, Seed: 55}, "diff-spatial-temporal-token-55.json"},
		{workload.Spec{Kind: "token", Blocks: 2, Txs: 16, Dep: 0.5, Seed: 55}, "diff-spatial-temporal-stream-55.json"},
	} {
		fails, err := h.Run(Spec{Workload: c.w, PUs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(fails) == 0 {
			t.Fatalf("injected scheduler bug not caught on %s", c.w)
		}
		path, err := h.WriteReproducer(dir, fails[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := filepath.Base(path); got != c.want {
			t.Errorf("%s: reproducer named %s, want %s", c.w, got, c.want)
		}
	}
	for _, name := range []string{"diff-spatial-temporal-token-55.json", "diff-spatial-temporal-stream-55.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpecFile(data)
		if err != nil {
			t.Fatal(err)
		}
		if chained := spec.Workload.Blocks > 0; chained != strings.Contains(name, "stream") {
			t.Errorf("%s holds spec %s", name, spec)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	pos := len(buf)
	for v > 0 {
		pos--
		buf[pos] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[pos:])
}
