// Package telemetry is the host-side metrics layer of the MTPU
// simulator — the wall-clock complement of the simulated-cycle
// accounting in internal/obs. Where obs answers "where did the
// simulated cycles go inside one replay", telemetry answers "how is
// this process doing over time": replays and simulated transactions
// per wall-second, block replay latency percentiles, DB-cache and
// State-Buffer warm/cold splits, scheduler pick rates, and Block-STM
// incarnation/abort rates — the run-time signals a long-running
// execution service reports.
//
// Recording is off by default: every integration point holds a nil
// *Metrics and pays one branch to skip it. When enabled, counters are
// single atomic adds and latency samples are one histogram add — zero
// allocations either way, safe for concurrent replays. Exposition has
// two faces: a Prometheus text endpoint plus expvar and pprof on an
// optional HTTP listener (Serve), and a point-in-time Snapshot for JSON
// artifacts. build.go fingerprints the binary and the host a
// measurement came from.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mtpu/internal/obs"
	"mtpu/internal/types"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Metrics is the typed registry of every host-side signal the
// simulator reports. One Metrics instance serves a whole process
// (concurrent sweep workers share it; everything inside is atomic).
// The zero value is not usable — construct with New so the start time
// and the obs bridge are initialized.
type Metrics struct {
	start time.Time

	// Replay volume: completed block replays, their simulated
	// transactions, instructions and makespan cycles. Sustained
	// replays/s and simulated-tx/s derive from these over uptime.
	Replays            Counter
	ReplayTxs          Counter
	ReplayInstructions Counter
	ReplayCycles       Counter

	// DB-cache warm/cold split, fed by the obs bridge at commit
	// boundaries (DBHits+DBMisses == lookups).
	DBHits   Counter
	DBMisses Counter

	// State Buffer warm/cold split, recorded per replay from the
	// processor's counters.
	SBufHits   Counter
	SBufMisses Counter

	// Scheduler behaviour: picks by class (via the obs bridge) and
	// candidate-window refill scans (sched.Result.RefillScans: the
	// candidates the §3.2 full-scan rule examines, an exact count, not
	// host work).
	SchedPicks       [obs.NumPickKinds]Counter
	SchedRefillScans Counter

	// Optimistic-execution rates, streamed live by the Block-STM
	// executor as incarnations complete — the signals invisible in a
	// consensus DAG and only observable at run time.
	STMIncarnations     Counter
	STMAborts           Counter
	STMEstimateAborts   Counter
	STMValidationPasses Counter
	STMValidationFails  Counter

	// Block-stream pipeline signals (internal/stream, cmd/mtpu-serve):
	// ingest admission counters, per-stage queue-depth gauges and busy
	// time, and the shadow-validation outcome counters. All zero for
	// batch runs, in which case the snapshot omits the stream section.
	StreamAccepted     Counter
	StreamRejected     Counter // queue-full rejections at ingest
	StreamInvalid      Counter // blocks the prefetch stage rejected
	StreamCommitted    Counter
	StreamCommittedTxs Counter
	StreamShadowChecks Counter
	StreamShadowFails  Counter
	// StreamOverlap counts the times a pipeline stage began work while
	// another stage was already busy — direct evidence the cross-block
	// pipeline actually overlapped (prefetching block N+1 while block N
	// executed), not just queued.
	StreamOverlap Counter
	// StreamQueueDepth[s] is the instantaneous depth of the bounded
	// queue feeding stage s; StreamStageBusyNS[s] accumulates the
	// wall-clock nanoseconds stage s spent processing (not waiting).
	StreamQueueDepth  [NumStreamStages]Gauge
	StreamStageBusyNS [NumStreamStages]Counter
	// Contract-Table learn split, published by the execute stage once
	// per block: of the traces offered to hotspot.ContractTable.Learn,
	// how many ran the analyser and how many repeated a path the table
	// had already merged.
	HotspotLearnOffered  Counter
	HotspotLearnAnalyzed Counter
	HotspotLearnReused   Counter

	// Multi-version state layer (internal/mvstate): cross-block fold
	// and snapshot activity for the chained stream service. Commits
	// counts block folds into the canonical head; VersionsFolded and
	// VersionsGCd count chain entries appended and pruned; SnapshotReads
	// counts pinned-snapshot resolutions through the version chains;
	// Revalidations/Invalidations count prefetch read-set checks and the
	// subset that found stale reads. ChainEntries and MaxChainLen gauge
	// the live version-chain footprint. All zero outside server mode, in
	// which case the snapshot omits the mvstate section.
	MVStateCommits        Counter
	MVStateVersionsFolded Counter
	MVStateVersionsGCd    Counter
	MVStateSnapshotReads  Counter
	MVStateRevalidations  Counter
	MVStateInvalidations  Counter
	MVStateChainEntries   Gauge
	MVStateMaxChainLen    Gauge

	// latencies holds one wall-clock block-latency histogram per
	// engine label. The map is append-only under mu; the read path
	// (one lookup per replay) takes the read lock only.
	mu        sync.RWMutex
	latencies map[string]*Histogram

	bridge bridge
}

// New returns an empty Metrics anchored at the current time.
func New() *Metrics {
	m := &Metrics{start: time.Now(), latencies: make(map[string]*Histogram)}
	m.bridge.m = m
	return m
}

// Start returns the construction time (the uptime anchor).
func (m *Metrics) Start() time.Time { return m.start }

// Uptime returns the wall-clock time since construction.
func (m *Metrics) Uptime() time.Duration { return time.Since(m.start) }

// Sink returns the obs.Sink face of the metrics: attach it (alone, or
// Tee'd with a cycle-obs Collector) at the one sink attachment point a
// replay has, and DB-cache flushes and scheduler picks stream into the
// counters. The bridge is concurrency-safe, so one instance serves
// every replay of the process.
func (m *Metrics) Sink() obs.Sink { return &m.bridge }

// Latency returns the block-latency histogram for an engine label,
// creating it on first use. Steady-state calls allocate nothing (one
// read-locked map lookup).
func (m *Metrics) Latency(label string) *Histogram {
	m.mu.RLock()
	h := m.latencies[label]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.latencies[label]; h == nil {
		h = &Histogram{}
		m.latencies[label] = h
	}
	return h
}

// ObserveReplay records one completed block replay: its engine label,
// simulated volume, and wall-clock duration.
func (m *Metrics) ObserveReplay(label string, txs int, instructions, cycles uint64, wall time.Duration) {
	m.Replays.Inc()
	m.ReplayTxs.Add(uint64(txs))
	m.ReplayInstructions.Add(instructions)
	m.ReplayCycles.Add(cycles)
	m.Latency(label).Record(uint64(wall.Nanoseconds()))
}

// bridge adapts Metrics to obs.Sink. Unlike obs.Collector it is safe
// for concurrent use, so one bridge serves every replay goroutine.
type bridge struct{ m *Metrics }

// DBFlush implements obs.Sink: fold one batched DB-cache delta into
// the warm/cold counters.
func (b *bridge) DBFlush(_ int, _ types.Address, d *obs.DBDelta) {
	b.m.DBHits.Add(d.Hits)
	b.m.DBMisses.Add(d.Misses)
}

// SchedPick implements obs.Sink.
func (b *bridge) SchedPick(pu int, now uint64, kind obs.PickKind, occupied int) {
	_, _, _ = pu, now, occupied
	if int(kind) < len(b.m.SchedPicks) {
		b.m.SchedPicks[kind].Inc()
	}
}

// LatencySnapshot is the exported percentile summary of one engine's
// block-latency histogram (milliseconds).
type LatencySnapshot struct {
	Label  string  `json:"label"`
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// StreamStage identifies one stage of the block-stream pipeline; each
// stage is fed by one bounded queue (ingest is the producer, not a
// stage — its admission outcomes are the Accepted/Rejected counters).
type StreamStage int

const (
	// StagePrefetch decodes block N+1 — DAG, traces, symbol tables,
	// plans — while StageExecute replays block N and StageCommit
	// verifies and publishes block N−1.
	StagePrefetch StreamStage = iota
	StageExecute
	StageCommit
	NumStreamStages
)

// String names the stage for snapshots and Prometheus labels.
func (s StreamStage) String() string {
	switch s {
	case StagePrefetch:
		return "prefetch"
	case StageExecute:
		return "execute"
	case StageCommit:
		return "commit"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// StreamSnapshot is the exported block-stream pipeline section.
type StreamSnapshot struct {
	Accepted     uint64 `json:"accepted"`
	Rejected     uint64 `json:"rejected"`
	Invalid      uint64 `json:"invalid"`
	Committed    uint64 `json:"committed"`
	CommittedTxs uint64 `json:"committed_txs"`
	ShadowChecks uint64 `json:"shadow_checks"`
	ShadowFails  uint64 `json:"shadow_fails"`
	Overlap      uint64 `json:"overlap"`

	// LearnOffered counts the traces the execute stage's Contract-Table
	// learn accepted; LearnAnalyzed + LearnReused split them by whether
	// the analyser ran or the path was already known.
	LearnOffered  uint64 `json:"learn_offered"`
	LearnAnalyzed uint64 `json:"learn_analyzed"`
	LearnReused   uint64 `json:"learn_reused"`

	// QueueDepth and StageBusyMS are keyed by stage name, one entry
	// per pipeline stage.
	QueueDepth  map[string]int64   `json:"queue_depth"`
	StageBusyMS map[string]float64 `json:"stage_busy_ms"`
}

// Check validates the stream section's counter identities. With
// drained true (the pipeline has been closed and fully drained) it
// additionally requires every accepted block to be accounted for and
// every queue to be empty — the graceful-drain contract.
func (s *StreamSnapshot) Check(drained bool) error {
	if s.Committed+s.Invalid > s.Accepted {
		return fmt.Errorf("telemetry: stream committed %d + invalid %d exceed accepted %d",
			s.Committed, s.Invalid, s.Accepted)
	}
	if s.ShadowChecks > s.Committed {
		return fmt.Errorf("telemetry: stream shadow checks %d exceed committed %d",
			s.ShadowChecks, s.Committed)
	}
	if s.ShadowFails > s.ShadowChecks {
		return fmt.Errorf("telemetry: stream shadow fails %d exceed checks %d",
			s.ShadowFails, s.ShadowChecks)
	}
	if s.LearnAnalyzed+s.LearnReused > s.LearnOffered {
		return fmt.Errorf("telemetry: stream learn analyzed %d + reused %d exceed offered %d",
			s.LearnAnalyzed, s.LearnReused, s.LearnOffered)
	}
	for stage, d := range s.QueueDepth {
		if d < 0 {
			return fmt.Errorf("telemetry: stream %s queue depth %d negative", stage, d)
		}
		if drained && d != 0 {
			return fmt.Errorf("telemetry: stream %s queue depth %d after drain", stage, d)
		}
	}
	if drained && s.Committed+s.Invalid != s.Accepted {
		return fmt.Errorf("telemetry: drained stream committed %d + invalid %d != accepted %d",
			s.Committed, s.Invalid, s.Accepted)
	}
	if drained && s.LearnAnalyzed+s.LearnReused != s.LearnOffered {
		return fmt.Errorf("telemetry: drained stream learn analyzed %d + reused %d != offered %d",
			s.LearnAnalyzed, s.LearnReused, s.LearnOffered)
	}
	return nil
}

// MVStateSnapshot is the exported multi-version state layer section.
type MVStateSnapshot struct {
	Commits        uint64 `json:"commits"`
	VersionsFolded uint64 `json:"versions_folded"`
	VersionsGCd    uint64 `json:"versions_gcd"`
	SnapshotReads  uint64 `json:"snapshot_reads"`
	Revalidations  uint64 `json:"revalidations"`
	Invalidations  uint64 `json:"invalidations"`
	ChainEntries   int64  `json:"chain_entries"`
	MaxChainLen    int64  `json:"max_chain_len"`
}

// Check validates the mvstate section's counter identities.
func (s *MVStateSnapshot) Check() error {
	if s.VersionsGCd > s.VersionsFolded {
		return fmt.Errorf("telemetry: mvstate versions gcd %d exceed folded %d",
			s.VersionsGCd, s.VersionsFolded)
	}
	if s.Invalidations > s.Revalidations {
		return fmt.Errorf("telemetry: mvstate invalidations %d exceed revalidations %d",
			s.Invalidations, s.Revalidations)
	}
	if s.ChainEntries < 0 || s.MaxChainLen < 0 {
		return fmt.Errorf("telemetry: mvstate negative gauge (entries %d, max chain %d)",
			s.ChainEntries, s.MaxChainLen)
	}
	return nil
}

// STMSnapshot is the exported optimistic-execution section.
type STMSnapshot struct {
	Incarnations     uint64  `json:"incarnations"`
	Aborts           uint64  `json:"aborts"`
	EstimateAborts   uint64  `json:"estimate_aborts"`
	ValidationPasses uint64  `json:"validation_passes"`
	ValidationFails  uint64  `json:"validation_fails"`
	AbortRate        float64 `json:"abort_rate"` // aborts / incarnations
}

// Snapshot is a point-in-time JSON-able export of every metric plus
// the derived sustained rates (the /snapshot endpoint's body).
type Snapshot struct {
	UptimeMS float64 `json:"uptime_ms"`

	Replays            uint64 `json:"replays"`
	ReplayTxs          uint64 `json:"replay_txs"`
	ReplayInstructions uint64 `json:"replay_instructions"`
	ReplayCycles       uint64 `json:"replay_cycles"`

	// Sustained host rates over uptime.
	ReplaysPerSec float64 `json:"replays_per_sec"`
	TxsPerSec     float64 `json:"txs_per_sec"`

	DBHits     uint64 `json:"db_hits"`
	DBMisses   uint64 `json:"db_misses"`
	SBufHits   uint64 `json:"sbuf_hits"`
	SBufMisses uint64 `json:"sbuf_misses"`

	SchedPicks       map[string]uint64 `json:"sched_picks,omitempty"`
	SchedRefillScans uint64            `json:"sched_refill_scans"`

	STM STMSnapshot `json:"stm"`

	// Stream is present only when the block-stream pipeline ran (any
	// ingest admission recorded), so batch-CLI snapshots are unchanged.
	Stream *StreamSnapshot `json:"stream,omitempty"`

	// MVState is present only when the multi-version state layer saw
	// activity (any commit, snapshot read or revalidation).
	MVState *MVStateSnapshot `json:"mvstate,omitempty"`

	Latency []LatencySnapshot `json:"latency,omitempty"`
}

// Snapshot exports the current state. Latency sections are sorted by
// label so snapshots are deterministic given deterministic recording.
func (m *Metrics) Snapshot() Snapshot {
	up := m.Uptime()
	upSec := up.Seconds()
	s := Snapshot{
		UptimeMS:           float64(up.Microseconds()) / 1000,
		Replays:            m.Replays.Load(),
		ReplayTxs:          m.ReplayTxs.Load(),
		ReplayInstructions: m.ReplayInstructions.Load(),
		ReplayCycles:       m.ReplayCycles.Load(),
		DBHits:             m.DBHits.Load(),
		DBMisses:           m.DBMisses.Load(),
		SBufHits:           m.SBufHits.Load(),
		SBufMisses:         m.SBufMisses.Load(),
		SchedRefillScans:   m.SchedRefillScans.Load(),
		STM: STMSnapshot{
			Incarnations:     m.STMIncarnations.Load(),
			Aborts:           m.STMAborts.Load(),
			EstimateAborts:   m.STMEstimateAborts.Load(),
			ValidationPasses: m.STMValidationPasses.Load(),
			ValidationFails:  m.STMValidationFails.Load(),
		},
	}
	if upSec > 0 {
		s.ReplaysPerSec = float64(s.Replays) / upSec
		s.TxsPerSec = float64(s.ReplayTxs) / upSec
	}
	if s.STM.Incarnations > 0 {
		s.STM.AbortRate = float64(s.STM.Aborts) / float64(s.STM.Incarnations)
	}
	if acc, rej, inv := m.StreamAccepted.Load(), m.StreamRejected.Load(), m.StreamInvalid.Load(); acc+rej+inv > 0 {
		st := &StreamSnapshot{
			Accepted:     acc,
			Rejected:     rej,
			Invalid:      inv,
			Committed:    m.StreamCommitted.Load(),
			CommittedTxs: m.StreamCommittedTxs.Load(),
			ShadowChecks: m.StreamShadowChecks.Load(),
			ShadowFails:  m.StreamShadowFails.Load(),
			Overlap:      m.StreamOverlap.Load(),
			// The stage adds Offered first, so reading it last keeps
			// analyzed + reused <= offered on a live pipeline.
			LearnAnalyzed: m.HotspotLearnAnalyzed.Load(),
			LearnReused:   m.HotspotLearnReused.Load(),
			LearnOffered:  m.HotspotLearnOffered.Load(),
			QueueDepth:    make(map[string]int64, NumStreamStages),
			StageBusyMS:   make(map[string]float64, NumStreamStages),
		}
		for i := StreamStage(0); i < NumStreamStages; i++ {
			st.QueueDepth[i.String()] = m.StreamQueueDepth[i].Load()
			st.StageBusyMS[i.String()] = float64(m.StreamStageBusyNS[i].Load()) / 1e6
		}
		s.Stream = st
	}
	if commits, reads, revals := m.MVStateCommits.Load(), m.MVStateSnapshotReads.Load(), m.MVStateRevalidations.Load(); commits+reads+revals > 0 {
		s.MVState = &MVStateSnapshot{
			Commits:        commits,
			VersionsFolded: m.MVStateVersionsFolded.Load(),
			VersionsGCd:    m.MVStateVersionsGCd.Load(),
			SnapshotReads:  reads,
			Revalidations:  revals,
			Invalidations:  m.MVStateInvalidations.Load(),
			ChainEntries:   m.MVStateChainEntries.Load(),
			MaxChainLen:    m.MVStateMaxChainLen.Load(),
		}
	}
	s.SchedPicks = make(map[string]uint64, len(m.SchedPicks))
	for k := range m.SchedPicks {
		s.SchedPicks[obs.PickKind(k).String()] = m.SchedPicks[k].Load()
	}
	m.mu.RLock()
	labels := make([]string, 0, len(m.latencies))
	for l := range m.latencies {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		h := m.latencies[l]
		if h.Count() == 0 {
			continue
		}
		s.Latency = append(s.Latency, LatencySnapshot{
			Label:  l,
			Count:  h.Count(),
			MeanMS: h.Mean() / 1e6,
			P50MS:  float64(h.Quantile(0.50)) / 1e6,
			P95MS:  float64(h.Quantile(0.95)) / 1e6,
			P99MS:  float64(h.Quantile(0.99)) / 1e6,
			MaxMS:  float64(h.Max()) / 1e6,
		})
	}
	m.mu.RUnlock()
	return s
}
