package main

import (
	"fmt"
	"math"
	"os"
)

// setupFloorS keeps setup_s from failing on noise: set-up takes about a
// tenth of a second, so it regresses only when it is worse by more than
// its bound and by more than this many seconds.
const setupFloorS = 0.2

// runCompare prints, per workload and end-to-end metric, both values,
// the relative difference and the bound from BENCHMARK.json. It fails
// when B is worse than A by more than a bound, when any exact metric or
// head digest differs at all, or when the failure ratio rose.
func runCompare(root, pathA, pathB string) int {
	m, err := loadManifest(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var files [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		if files[i], err = readResults(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return compare(m, files[0], files[1])
}

func compare(m *manifest, a, b *resultFile) int {
	byName := map[string]*result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	findings := 0
	finding := func(format string, args ...any) {
		findings++
		fmt.Printf("  FINDING "+format+"\n", args...)
	}
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Printf("== %s: only in A\n", ra.Workload)
			findings++
			continue
		}
		fmt.Printf("== %s (seed %d vs %d)\n", ra.Workload, ra.Seed, rb.Seed)
		fmt.Printf("%-26s %14s %14s %9s %7s\n", "metric", "A", "B", "diff", "bound")
		for _, mm := range m.EndToEnd {
			va, okA := ra.EndToEnd[mm.Name]
			vb, okB := rb.EndToEnd[mm.Name]
			if !okA || !okB {
				finding("%s missing (invalid run)", mm.Name)
				continue
			}
			rel := (vb - va) / va
			worse := rel
			if mm.Better == "higher" {
				worse = -rel
			}
			fmt.Printf("%-26s %14.4f %14.4f %+8.2f%% %6.0f%%\n", mm.Name, va, vb, 100*rel, 100*mm.Bound)
			if worse > mm.Bound && (mm.Name != "setup_s" || vb-va > setupFloorS) {
				finding("%s worse by %.2f%% > bound %.0f%%", mm.Name, 100*worse, 100*mm.Bound)
			}
		}
		for _, defs := range [][]metric{endToEnd, perLayer} {
			for _, d := range defs {
				if !d.exact {
					continue
				}
				va, vb := pick(ra, d.name), pick(rb, d.name)
				if va != vb && !(math.IsNaN(va) && math.IsNaN(vb)) {
					finding("exact metric %s differs: %v vs %v", d.name, va, vb)
				}
			}
		}
		for phase, da := range ra.Digests {
			if db := rb.Digests[phase]; da != db {
				finding("%s head digest differs: %s vs %s", phase, da, db)
			}
		}
		fa := float64(ra.Failed) / float64(ra.Attempted)
		fb := float64(rb.Failed) / float64(rb.Attempted)
		fmt.Printf("%-26s %14s %14s\n", "blocks_failed/attempted",
			fmt.Sprintf("%d/%d", ra.Failed, ra.Attempted), fmt.Sprintf("%d/%d", rb.Failed, rb.Attempted))
		if fb > fa {
			finding("failure ratio rose from %.4f to %.4f", fa, fb)
		}
	}
	if findings > 0 {
		fmt.Printf("\n%d finding(s)\n", findings)
		return 1
	}
	fmt.Println("\nno regression: every bound held, exact metrics and digests identical")
	return 0
}

// pick reads a metric from whichever section of the result holds it;
// NaN marks a metric the run did not report.
func pick(r *result, name string) float64 {
	if v, ok := r.EndToEnd[name]; ok {
		return v
	}
	if v, ok := r.PerLayer[name]; ok {
		return v
	}
	return math.NaN()
}
