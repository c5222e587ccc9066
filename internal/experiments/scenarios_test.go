package experiments

import (
	"strings"
	"testing"

	"mtpu/internal/engine"
	"mtpu/internal/workload"
)

func TestScenarioSweepCoversGrid(t *testing.T) {
	points := ScenarioSweep(testEnv)
	modes := engine.Modes()
	want := len(workload.Scenarios) * len(ScenarioPUs) * len(modes)
	if len(points) != want {
		t.Fatalf("%d points, want %d (scenarios × PUs × engines)", len(points), want)
	}
	i := 0
	for _, s := range workload.Scenarios {
		for _, pus := range ScenarioPUs {
			for _, m := range modes {
				p := points[i]
				i++
				if p.Scenario != s || p.PUs != pus || p.Engine != m.String() {
					t.Fatalf("point %d: got %s/%s/pus%d, want %s/%s/pus%d",
						i-1, p.Scenario, p.Engine, p.PUs, s, m, pus)
				}
				if p.Cycles == 0 || p.Speedup <= 0 || p.TxPerSec <= 0 {
					t.Errorf("%s/%s pus %d: empty measurement %+v", s, m, pus, p)
				}
			}
		}
	}
	// The first registered engine anchors each cell's speedup column.
	for c := 0; c < len(points); c += len(modes) {
		if points[c].Speedup != 1.0 {
			t.Errorf("%s pus %d: anchor speedup %.2f, want 1.0",
				points[c].Scenario, points[c].PUs, points[c].Speedup)
		}
	}
	out := RenderScenarios(points)
	if out == "" {
		t.Fatal("empty rendering")
	}
	if !strings.Contains(out, "hotspot-optimization delta") {
		t.Error("rendering missing the hotspot delta table")
	}
	for _, s := range workload.Scenarios {
		if !strings.Contains(out, s) {
			t.Errorf("rendering missing scenario %s", s)
		}
	}
}
