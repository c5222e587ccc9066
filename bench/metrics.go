package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metric declares one reported number. exact marks simulated time and
// counts: they depend only on the inputs, so two runs of one seed must
// agree to the last digit and -compare treats any difference as a
// finding. Everything else is host time and carries noise.
type metric struct {
	name  string
	unit  string
	exact bool
}

// endToEnd lists what an operator or a researcher waits or pays for.
// Directions and regression bounds live in BENCHMARK.json; the self-test
// holds the two lists to each other.
var endToEnd = []metric{
	{"setup_s", "s", false},
	{"sync_blocks_per_s", "1/s", false},
	{"paced_latency_p50_ms", "ms", false},
	{"paced_latency_p90_ms", "ms", false},
	{"sim_cycles_per_tx", "cycles", true},
	{"sim_speedup_vs_scalar", "x", true},
	{"peak_rss_mb", "MB", false},
}

// perLayer lists the single-layer numbers of the traced run and of the
// service's own stage counters, grouped by the module they belong to.
var perLayer = []metric{
	{"types.rlp_decode_us_per_block", "us", false},
	{"evm.apply_us_per_block", "us", false},
	{"evm.instructions_per_tx", "count", true},
	{"core.prepare_us_per_block", "us", false},
	{"core.dag_edges_per_tx", "count", true},
	{"mvstate.base_reads_per_block", "count", true},
	{"mvstate.write_keys_per_block", "count", true},
	{"pu.plans_us_per_block", "us", false},
	{"pu.fillmemo_us_per_block", "us", false},
	{"mvstate.digest_us_per_block", "us", false},
	{"state.accounts", "count", true},
	{"engine.replay_us_per_block", "us", false},
	{"engine.replay_scalar_us_per_block", "us", false},
	{"pipeline.db_hit_ratio", "ratio", true},
	{"pipeline.ipc", "ratio", true},
	{"mtpu.pu_utilization", "ratio", true},
	{"mtpu.sbuf_hit_ratio", "ratio", true},
	{"sched.refill_scans_per_tx", "count", true},
	{"stm.incarnations_per_tx", "count", true},
	{"stm.abort_rate", "ratio", true},
	{"hotspot.learn_us_per_block", "us", false},
	{"hotspot.skipped_instr_ratio", "ratio", true},
	{"mvstate.commit_us_per_block", "us", false},
	{"mvstate.max_chain_len", "count", true},
	{"mvstate.versions_gcd_ratio", "ratio", true},
	{"difftest.oracle_us_per_check", "us", false},
	{"stream.sync.prefetch_busy_us_per_block", "us", false},
	{"stream.sync.execute_busy_us_per_block", "us", false},
	{"stream.sync.commit_busy_us_per_block", "us", false},
	{"stream.sync.prefetch_useful_ratio", "ratio", false},
	{"stream.sync.overlap_per_block", "count", false},
	{"stream.sync.cpu_cores_busy", "cores", false},
	{"stream.paced.prefetch_busy_us_per_block", "us", false},
	{"stream.paced.execute_busy_us_per_block", "us", false},
	{"stream.paced.commit_busy_us_per_block", "us", false},
	{"stream.paced.prefetch_useful_ratio", "ratio", false},
	{"stream.paced.overlap_per_block", "count", false},
	{"stream.paced.cpu_cores_busy", "cores", false},
	{"trace.serial_us_per_block", "us", false},
	{"trace.span_coverage", "ratio", false},
	{"trace.pipeline_gain", "x", false},
	{"gen.late_p99_ms", "ms", false},
	{"gen.watch_resolution_us", "us", false},
	{"host.alloc_kb_per_block", "KB", false},
	{"host.mallocs_per_block", "count", false},
	{"host.gc_cycles", "count", false},
}

// manifest mirrors BENCHMARK.json, the contract the driver and -compare
// read the regression bounds from.
type manifest struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// repoRoot finds the checkout root — the directory holding
// BENCHMARK.json — from the working directory, which is the root under
// bench/run.sh and bench/ under `go run .`.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

func loadManifest(root string) (*manifest, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}
