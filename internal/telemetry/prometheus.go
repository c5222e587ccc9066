package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// WritePrometheus renders the metrics in Prometheus text exposition
// format (version 0.0.4). Metric families are emitted in a fixed
// order and label sets are sorted, so two snapshots of the same state
// serialize identically.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	s := m.Snapshot()
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gaugeF := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	gaugeF("mtpu_uptime_seconds", "Wall-clock seconds since telemetry start.", s.UptimeMS/1000)

	counter("mtpu_replays_total", "Completed block replays.", s.Replays)
	counter("mtpu_replay_txs_total", "Simulated transactions replayed.", s.ReplayTxs)
	counter("mtpu_replay_instructions_total", "Simulated instructions replayed.", s.ReplayInstructions)
	counter("mtpu_replay_cycles_total", "Simulated makespan cycles accumulated.", s.ReplayCycles)

	gaugeF("mtpu_replays_per_second", "Sustained replays per wall-clock second.", s.ReplaysPerSec)
	gaugeF("mtpu_txs_per_second", "Sustained simulated transactions per wall-clock second.", s.TxsPerSec)

	counter("mtpu_db_cache_hits_total", "DB-cache hits (warm lookups).", s.DBHits)
	counter("mtpu_db_cache_misses_total", "DB-cache misses (cold lookups).", s.DBMisses)
	counter("mtpu_sbuf_hits_total", "State Buffer hits (warm touches).", s.SBufHits)
	counter("mtpu_sbuf_misses_total", "State Buffer misses (cold touches).", s.SBufMisses)

	fmt.Fprintf(&b, "# HELP mtpu_sched_picks_total Scheduler selections by pick class.\n# TYPE mtpu_sched_picks_total counter\n")
	for _, kind := range []string{"forced", "largest-V", "redundant"} {
		fmt.Fprintf(&b, "mtpu_sched_picks_total{kind=%q} %d\n", kind, s.SchedPicks[kind])
	}
	counter("mtpu_sched_refill_scans_total", "Candidate evaluations in scheduling-window refills.", s.SchedRefillScans)

	counter("mtpu_stm_incarnations_total", "Block-STM transaction incarnations executed.", s.STM.Incarnations)
	counter("mtpu_stm_aborts_total", "Block-STM incarnations aborted by validation.", s.STM.Aborts)
	counter("mtpu_stm_estimate_aborts_total", "Block-STM incarnations aborted on ESTIMATE reads.", s.STM.EstimateAborts)
	counter("mtpu_stm_validation_passes_total", "Block-STM validations that passed.", s.STM.ValidationPasses)
	counter("mtpu_stm_validation_fails_total", "Block-STM validations that failed.", s.STM.ValidationFails)

	if st := s.Stream; st != nil {
		counter("mtpu_stream_accepted_total", "Blocks accepted into the stream pipeline.", st.Accepted)
		counter("mtpu_stream_rejected_total", "Blocks rejected at ingest (queue full).", st.Rejected)
		counter("mtpu_stream_invalid_total", "Blocks the prefetch stage rejected as invalid.", st.Invalid)
		counter("mtpu_stream_committed_total", "Blocks committed by the stream pipeline.", st.Committed)
		counter("mtpu_stream_committed_txs_total", "Transactions committed by the stream pipeline.", st.CommittedTxs)
		counter("mtpu_stream_shadow_checks_total", "Blocks re-executed by the shadow validator.", st.ShadowChecks)
		counter("mtpu_stream_shadow_fails_total", "Shadow validations that diverged from the engine result.", st.ShadowFails)
		counter("mtpu_stream_overlap_total", "Stage work beginnings while another stage was busy.", st.Overlap)
		counter("mtpu_hotspot_learn_offered_total", "Traces the execute stage offered to the Contract Table.", st.LearnOffered)
		counter("mtpu_hotspot_learn_analyzed_total", "Offered traces the hotspot analyser ran on.", st.LearnAnalyzed)
		counter("mtpu_hotspot_learn_reused_total", "Offered traces that repeated an already merged execution path.", st.LearnReused)
		fmt.Fprintf(&b, "# HELP mtpu_stream_queue_depth Bounded-queue depth feeding each pipeline stage.\n# TYPE mtpu_stream_queue_depth gauge\n")
		for i := StreamStage(0); i < NumStreamStages; i++ {
			fmt.Fprintf(&b, "mtpu_stream_queue_depth{stage=%q} %d\n", i.String(), st.QueueDepth[i.String()])
		}
		fmt.Fprintf(&b, "# HELP mtpu_stream_stage_busy_seconds Wall-clock seconds each stage spent processing.\n# TYPE mtpu_stream_stage_busy_seconds counter\n")
		for i := StreamStage(0); i < NumStreamStages; i++ {
			fmt.Fprintf(&b, "mtpu_stream_stage_busy_seconds{stage=%q} %g\n", i.String(), st.StageBusyMS[i.String()]/1000)
		}
	}

	if mv := s.MVState; mv != nil {
		counter("mtpu_mvstate_commits_total", "Blocks folded into the multi-version head state.", mv.Commits)
		counter("mtpu_mvstate_versions_folded_total", "Key versions folded into the head across commits.", mv.VersionsFolded)
		counter("mtpu_mvstate_versions_gcd_total", "Key versions pruned once no pinned snapshot could read them.", mv.VersionsGCd)
		counter("mtpu_mvstate_snapshot_reads_total", "Reads served through pinned version-chain snapshots.", mv.SnapshotReads)
		counter("mtpu_mvstate_revalidations_total", "Speculative read-sets revalidated against newer folds.", mv.Revalidations)
		counter("mtpu_mvstate_invalidations_total", "Revalidations that found a stale read (re-decode forced).", mv.Invalidations)
		fmt.Fprintf(&b, "# HELP mtpu_mvstate_chain_entries Live version-chain entries across all keys.\n# TYPE mtpu_mvstate_chain_entries gauge\nmtpu_mvstate_chain_entries %d\n", mv.ChainEntries)
		fmt.Fprintf(&b, "# HELP mtpu_mvstate_max_chain_len Longest per-key version chain observed.\n# TYPE mtpu_mvstate_max_chain_len gauge\nmtpu_mvstate_max_chain_len %d\n", mv.MaxChainLen)
	}

	fmt.Fprintf(&b, "# HELP mtpu_block_latency_seconds Wall-clock block replay latency percentiles by engine.\n# TYPE mtpu_block_latency_seconds summary\n")
	for _, l := range s.Latency {
		fmt.Fprintf(&b, "mtpu_block_latency_seconds{mode=%q,quantile=\"0.5\"} %g\n", l.Label, l.P50MS/1000)
		fmt.Fprintf(&b, "mtpu_block_latency_seconds{mode=%q,quantile=\"0.95\"} %g\n", l.Label, l.P95MS/1000)
		fmt.Fprintf(&b, "mtpu_block_latency_seconds{mode=%q,quantile=\"0.99\"} %g\n", l.Label, l.P99MS/1000)
		fmt.Fprintf(&b, "mtpu_block_latency_seconds_sum{mode=%q} %g\n", l.Label, l.MeanMS/1000*float64(l.Count))
		fmt.Fprintf(&b, "mtpu_block_latency_seconds_count{mode=%q} %d\n", l.Label, l.Count)
	}

	_, err := io.WriteString(w, b.String())
	return err
}
