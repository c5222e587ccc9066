package telemetry

import (
	"strings"
	"testing"
)

func streamMetrics() *Metrics {
	m := New()
	m.StreamAccepted.Add(10)
	m.StreamRejected.Add(2)
	m.StreamInvalid.Add(1)
	m.StreamCommitted.Add(9)
	m.StreamCommittedTxs.Add(9 * 64)
	m.StreamShadowChecks.Add(3)
	m.StreamOverlap.Add(5)
	m.StreamStageBusyNS[StageExecute].Add(2_000_000)
	m.HotspotLearnOffered.Add(500)
	m.HotspotLearnAnalyzed.Add(12)
	m.HotspotLearnReused.Add(488)
	return m
}

func TestStreamStageString(t *testing.T) {
	want := []string{"prefetch", "execute", "commit"}
	for i := StreamStage(0); i < NumStreamStages; i++ {
		if i.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, i.String(), want[i])
		}
	}
}

// TestSnapshotStreamSection checks the stream section appears only once
// stream counters move, so batch CLI snapshots keep their old shape.
func TestSnapshotStreamSection(t *testing.T) {
	if s := New().Snapshot(); s.Stream != nil {
		t.Fatal("fresh metrics snapshot has a stream section")
	}
	s := streamMetrics().Snapshot()
	if s.Stream == nil {
		t.Fatal("stream counters moved but snapshot has no stream section")
	}
	if s.Stream.Accepted != 10 || s.Stream.Committed != 9 || s.Stream.Overlap != 5 {
		t.Fatalf("stream section mismatch: %+v", s.Stream)
	}
	if ms := s.Stream.StageBusyMS["execute"]; ms != 2 {
		t.Fatalf("execute busy %v ms, want 2", ms)
	}
}

func TestStreamSnapshotCheck(t *testing.T) {
	good := streamMetrics().Snapshot().Stream
	if err := good.Check(true); err != nil {
		t.Fatalf("consistent drained snapshot rejected: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func(*StreamSnapshot)
		drained bool
	}{
		{"committed exceeds accepted", func(s *StreamSnapshot) { s.Committed = s.Accepted + 1 }, false},
		{"undrained blocks unaccounted", func(s *StreamSnapshot) { s.Committed = 3 }, true},
		{"shadow checks exceed committed", func(s *StreamSnapshot) { s.ShadowChecks = s.Committed + 1 }, false},
		{"shadow fails exceed checks", func(s *StreamSnapshot) { s.ShadowFails = s.ShadowChecks + 1 }, false},
		{"negative queue depth", func(s *StreamSnapshot) { s.QueueDepth["execute"] = -1 }, false},
		{"drained with queued blocks", func(s *StreamSnapshot) { s.QueueDepth["commit"] = 2 }, true},
		{"learn split exceeds offered", func(s *StreamSnapshot) { s.LearnReused++ }, false},
		{"drained with unaccounted learn traces", func(s *StreamSnapshot) { s.LearnAnalyzed-- }, true},
	}
	for _, c := range cases {
		s := streamMetrics().Snapshot().Stream
		c.mutate(s)
		if err := s.Check(c.drained); err == nil {
			t.Errorf("%s: Check(drained=%v) accepted inconsistent snapshot", c.name, c.drained)
		}
	}
}

func TestPrometheusStreamFamilies(t *testing.T) {
	var plain strings.Builder
	if err := New().WritePrometheus(&plain); err != nil {
		t.Fatalf("write: %v", err)
	}
	if strings.Contains(plain.String(), "mtpu_stream_") {
		t.Fatal("stream families exposed with no stream activity")
	}

	var b strings.Builder
	if err := streamMetrics().WritePrometheus(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"mtpu_stream_accepted_total 10",
		"mtpu_stream_committed_total 9",
		"mtpu_stream_overlap_total 5",
		"mtpu_hotspot_learn_analyzed_total 12",
		"mtpu_hotspot_learn_reused_total 488",
		`mtpu_stream_queue_depth{stage="prefetch"} 0`,
		`mtpu_stream_stage_busy_seconds{stage="execute"} 0.002`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}
