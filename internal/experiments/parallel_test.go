package experiments

import (
	"reflect"
	"testing"

	"mtpu/internal/core"
)

// twoEnvs returns a serial environment and one fanned out over 8
// workers, both on the default seed.
func twoEnvs() (*Env, *Env) {
	serial := NewEnv(DefaultSeed)
	par := NewEnv(DefaultSeed)
	par.Workers = 8
	return serial, par
}

// TestParallelSweepMatchesSerial is the determinism invariant of the
// experiment engine: the same sweep fanned out over workers must be
// byte-identical to the serial run, down to float bit patterns. The
// grid reaches the baseline sub-grid, so all six scheduling engines run
// at 8 workers here, which makes this the check that their points share
// the cache's head, entries and entry-owned accelerators safely.
func TestParallelSweepMatchesSerial(t *testing.T) {
	serial, par := twoEnvs()
	pus := []int{1, 4}
	ratios := []float64{0, 0.5, 1.0}

	want := SchedulingSweep(serial, pus, ratios)
	got := SchedulingSweep(par, pus, ratios)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("parallel sweep differs from serial:\nserial: %+v\nparallel: %+v", want, got)
	}
	engines := map[string]bool{}
	for _, p := range got {
		for _, c := range p.Cells {
			engines[c.Engine] = true
		}
	}
	if len(engines) != len(gridEngines)+len(baselineEngines) {
		t.Errorf("sweep replayed %d engines (%v), want six", len(engines), engines)
	}

	for _, render := range []func([]SchedPoint) string{
		func(p []SchedPoint) string { return RenderSchedPoints("t", p, core.ModeSTHotspot, "speedup") },
		RenderBaselines,
	} {
		if wantStr, gotStr := render(want), render(got); wantStr != gotStr {
			t.Fatalf("rendered sweep differs:\n%s\nvs\n%s", wantStr, gotStr)
		}
	}
}

// TestParallelTablesMatchSerial checks the remaining fanned-out
// experiments point by point (and Table 9 on its rendered string). The
// Table 8 sweep runs at 8 workers here, which checks that its points
// share the cache's entries and entry-owned accelerators safely.
func TestParallelTablesMatchSerial(t *testing.T) {
	serial, par := twoEnvs()

	t8s, t8p := Table8(serial), Table8(par)
	if !reflect.DeepEqual(t8s, t8p) {
		t.Errorf("Table8 differs: %+v vs %+v", t8s, t8p)
	}

	t9s, t9p := Table9(serial), Table9(par)
	if !reflect.DeepEqual(t9s, t9p) {
		t.Errorf("Table9 differs: %+v vs %+v", t9s, t9p)
	}
	if RenderTable9(t9s) != RenderTable9(t9p) {
		t.Error("rendered Table9 differs")
	}

	abS, abP := Ablations(serial), Ablations(par)
	if !reflect.DeepEqual(abS, abP) {
		t.Errorf("Ablations differ: %+v vs %+v", abS, abP)
	}

	t1s, t1p := Table1(serial), Table1(par)
	if !reflect.DeepEqual(t1s, t1p) {
		t.Errorf("Table1 differs: %+v vs %+v", t1s, t1p)
	}

	f13s, f13p := Fig13(serial), Fig13(par)
	if !reflect.DeepEqual(f13s, f13p) {
		t.Errorf("Fig13 differs: %+v vs %+v", f13s, f13p)
	}
}

// TestCacheSharedAcrossExperiments checks that experiments replaying
// the same workload shape share one functional-EVM pass.
func TestCacheSharedAcrossExperiments(t *testing.T) {
	env := NewEnv(DefaultSeed)
	_ = Fig12(env) // Fig12BatchSize batches
	_, miss0 := env.cache.Stats()
	_ = Table7(env) // same batches, must all hit
	hits, miss1 := env.cache.Stats()
	if miss1 != miss0 {
		t.Errorf("Table7 rebuilt traces: misses %d -> %d", miss0, miss1)
	}
	if hits == 0 {
		t.Error("no cache hits recorded")
	}
}
