package experiments

import (
	"reflect"
	"strings"
	"testing"

	"mtpu/internal/arch/pipeline"
)

// TestStatsRecorderParallelMatchesSerial extends the determinism
// invariant to the counter snapshots: aggregates merged from 8 workers
// must equal the serial run exactly (merging is a commutative sum).
func TestStatsRecorderParallelMatchesSerial(t *testing.T) {
	serial, par := twoEnvs()
	serial.Stats = NewStatsRecorder()
	par.Stats = NewStatsRecorder()

	// Dep 0 and 1.0 on 4 PUs are on the baseline sub-grid, so all six
	// scheduling engines record.
	pus := []int{4}
	ratios := []float64{0, 0.5, 1.0}
	SchedulingSweep(serial, pus, ratios)
	SchedulingSweep(par, pus, ratios)

	want, got := serial.Stats.Snapshots(), par.Stats.Snapshots()
	if len(want) != 6 {
		t.Fatalf("serial sweep recorded %d labels, want one per scheduling engine: %v", len(want), serial.Stats.Labels())
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("parallel snapshots differ from serial:\nserial: %+v\nparallel: %+v", want, got)
	}
	if RenderStats(serial.Stats) != RenderStats(par.Stats) {
		t.Error("rendered stats differ")
	}
}

func TestStatsRecorderLabelsAndMerge(t *testing.T) {
	r := NewStatsRecorder()
	env := NewEnv(DefaultSeed)
	env.Stats = r
	_ = Fig12(env)

	labels := r.Labels()
	want := []string{"fig12/+DF", "fig12/+IF", "fig12/F&D"}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
	for _, l := range labels {
		s := r.Get(l)
		if s.Points != len(Top8Names) {
			t.Errorf("%s: %d points, want one per contract (%d)", l, s.Points, len(Top8Names))
		}
		if s.Cycles == 0 || s.Pipeline.Instructions == 0 {
			t.Errorf("%s: empty snapshot %+v", l, s)
		}
		if s.Pipeline.IssueCycles > s.Pipeline.Cycles {
			t.Errorf("%s: issue cycles exceed total: %+v", l, s.Pipeline)
		}
	}
	if got := r.Get("no-such-label"); got != (Snapshot{}) {
		t.Errorf("absent label returned %+v", got)
	}

	out := RenderStats(r)
	for _, l := range labels {
		if !strings.Contains(out, l) {
			t.Errorf("rendered stats missing label %s:\n%s", l, out)
		}
	}
}

// TestRecordNoopWhenDisabled: the default environment (Stats == nil)
// must not panic or allocate a recorder as experiments run.
func TestRecordNoopWhenDisabled(t *testing.T) {
	env := NewEnv(DefaultSeed)
	env.record("x", pipeline.Stats{}, 1)
	if env.Stats != nil {
		t.Error("record materialized a recorder")
	}
}
