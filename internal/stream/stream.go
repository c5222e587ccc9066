// Package stream is the block-stream execution service: a long-running
// staged pipeline across consecutive blocks, turning the one-shot
// replay machinery into a daemon the way the paper's accelerator
// pipelines instructions. While block N executes on the configured
// engine, the prefetch/decode stage is already building block N+1's
// DAG, traces and symbol tables, and the commit stage is verifying and
// publishing block N−1 — the Block-STM / BSE observation that schedule
// construction for the next block can overlap execution of the current
// one, made first-class.
//
// State is chained across blocks through an mvstate.Store: the commit
// stage folds each block's write-set into the canonical head, so block
// N+1 executes against post-N state, not genesis. Prefetch decodes
// speculatively against a pinned snapshot of the head; the execute
// stage revalidates the decode's base read-set against the folds that
// landed since and re-decodes at the exact pre-state when stale.
//
// Stages are connected by bounded channels; ingest applies explicit
// backpressure (TrySubmit returns ErrQueueFull, the HTTP face answers
// 429) so a slow executor surfaces as rejected blocks, never as
// unbounded memory. Close drains gracefully: every accepted block is
// committed before Wait returns. An optional shadow validator
// re-executes a sampled fraction of committed blocks through the
// sequential oracle (difftest.OracleCheckAt) and either halts the
// pipeline or logs, per configuration. All signals — admission
// counters, per-stage queue depths and busy time, per-block end-to-end
// latency histograms — flow through internal/telemetry.
package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/difftest"
	"mtpu/internal/engine"
	"mtpu/internal/mvstate"
	"mtpu/internal/state"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
)

// Sentinel admission errors the ingest faces translate to protocol
// signals (HTTP 429 / 503).
var (
	// ErrQueueFull reports that the ingest queue is at capacity — the
	// backpressure signal. The block was not accepted; retry later.
	ErrQueueFull = errors.New("stream: ingest queue full")
	// ErrClosed reports that the service is draining or halted and
	// accepts no further blocks.
	ErrClosed = errors.New("stream: service closed")
)

// DefaultQueueDepth bounds each inter-stage channel when Config.Queue
// is zero: deep enough to keep every stage busy, shallow enough that a
// stalled executor rejects ingest within a handful of blocks.
const DefaultQueueDepth = 8

// Config parameterizes one Service.
type Config struct {
	// Mode is the execution engine every block runs on.
	Mode engine.Mode
	// Genesis seeds the canonical head state: block 1 of the stream
	// executes against it, and every committed block's write-set folds
	// into the head, so later blocks see true chained state. Required.
	Genesis *state.StateDB
	// VerifyChain sums the head-state digest from scratch after every
	// fold and asserts it matches both the store's accumulator and the
	// digest the block was verified against — the digest-continuity
	// check (verifyFold). Full-state hashing per block; meant for CI and
	// debugging, not peak-throughput serving.
	VerifyChain bool
	// NumPUs overrides the architectural PU count when > 0.
	NumPUs int
	// Queue bounds each inter-stage channel (0 = DefaultQueueDepth).
	Queue int
	// HotspotTopN is how many hot contracts the Contract Table learns
	// from each committed block's traces, warming the next block's
	// replay (0 disables learning).
	HotspotTopN int
	// ShadowSample is the fraction of committed blocks re-executed
	// through the sequential oracle (difftest.OracleCheckAt): 0 disables
	// shadow validation, 1 checks every block, intermediate values
	// check every round(1/ShadowSample)-th block deterministically.
	ShadowSample float64
	// ShadowLogOnly keeps the pipeline running on a shadow-validation
	// mismatch, only logging it; the default halts the service and
	// surfaces the divergence from Wait.
	ShadowLogOnly bool
	// Tel receives every pipeline signal; nil constructs a private
	// registry (the Report still needs the histograms).
	Tel *telemetry.Metrics
	// Logf, when non-nil, receives service log lines (drain progress,
	// shadow mismatches in log-only mode, rejected blocks).
	Logf func(format string, args ...any)
}

// ingested is one accepted block with its admission timestamp, the
// start of the end-to-end latency the commit stage records.
type ingested struct {
	block *types.Block
	at    time.Time
}

// executed is the execute stage's output for one block.
type executed struct {
	pre *prefetched
	res *core.Result
}

// Service is one running block-stream pipeline. Construct with New;
// every Service owns three stage goroutines until Wait returns.
type Service struct {
	cfg   Config
	eng   engine.Engine
	label string
	acc   *core.Accelerator
	tel   *telemetry.Metrics
	store *mvstate.Store

	ingestQ chan ingested
	execQ   chan *prefetched
	commitQ chan *executed

	mu     sync.Mutex
	closed bool

	quit     chan struct{} // closed on halt: unblocks every stage send/recv
	done     chan struct{} // closed when the commit stage exits
	failOnce sync.Once
	err      error

	// stage-overlap evidence: busyStages counts the stages currently
	// inside processing work (not channel waits).
	busyStages atomic.Int32

	// drain/report bookkeeping.
	accepted     atomic.Uint64
	committed    atomic.Uint64
	committedTxs atomic.Uint64
	invalid      atomic.Uint64
	rejected     atomic.Uint64
	shadowChecks atomic.Uint64
	shadowFails  atomic.Uint64
	overlap      atomic.Uint64
	stageBusyNS  [telemetry.NumStreamStages]atomic.Uint64
	firstAccept  atomic.Int64 // unix nanos of the first accepted block
	lastCommit   atomic.Int64 // unix nanos of the latest commit

	// execHook, when non-nil, runs inside the execute stage's work
	// section before each replay — the test seam for a slow executor.
	execHook func()
}

// New validates the configuration and starts the pipeline stages.
func New(cfg Config) (*Service, error) {
	eng, err := engine.Get(cfg.Mode)
	if err != nil {
		return nil, err
	}
	if cfg.Genesis == nil {
		return nil, fmt.Errorf("stream: config needs a genesis state")
	}
	if cfg.ShadowSample < 0 || cfg.ShadowSample > 1 {
		return nil, fmt.Errorf("stream: shadow sample %v outside [0,1]", cfg.ShadowSample)
	}
	if cfg.Queue < 0 {
		return nil, fmt.Errorf("stream: negative queue depth %d", cfg.Queue)
	}
	queue := cfg.Queue
	if queue == 0 {
		queue = DefaultQueueDepth
	}
	tel := cfg.Tel
	if tel == nil {
		tel = telemetry.New()
	}
	acfg := arch.DefaultConfig()
	if cfg.NumPUs > 0 {
		acfg.NumPUs = cfg.NumPUs
	}
	s := &Service{
		cfg:     cfg,
		eng:     eng,
		label:   "serve/" + eng.Name(),
		acc:     core.New(acfg),
		tel:     tel,
		store:   mvstate.NewStore(cfg.Genesis, tel),
		ingestQ: make(chan ingested, queue),
		execQ:   make(chan *prefetched, queue),
		commitQ: make(chan *executed, queue),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go s.prefetchLoop()
	go s.executeLoop()
	go s.commitLoop()
	return s, nil
}

// Tel returns the telemetry registry the pipeline reports into.
func (s *Service) Tel() *telemetry.Metrics { return s.tel }

// Engine returns the name of the engine the service executes on.
func (s *Service) Engine() string { return s.eng.Name() }

// Height returns the number of blocks folded into the canonical head.
func (s *Service) Height() uint64 { return s.store.Height() }

// HeadDigest returns the digest of the canonical head state — genesis's
// digest at height 0, then the post-block digest after each fold.
func (s *Service) HeadDigest() types.Hash { return s.store.HeadDigest() }

// logf forwards to the configured logger, if any.
func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// fail records the first pipeline error and halts every stage.
func (s *Service) fail(err error) {
	s.failOnce.Do(func() {
		s.err = err
		close(s.quit)
		// Wake the execute stage if it is waiting for a fold that will
		// never come.
		s.store.Interrupt()
	})
}

// Submit hands one block to the pipeline, blocking while the ingest
// queue is full (in-process sources get natural backpressure). It
// returns ErrClosed once the service is draining or halted.
func (s *Service) Submit(b *types.Block) error {
	return s.submit(b, true)
}

// TrySubmit is the non-blocking Submit the network faces use: a full
// ingest queue returns ErrQueueFull immediately (and counts one
// rejection) instead of buffering — bounded memory by construction.
func (s *Service) TrySubmit(b *types.Block) error {
	return s.submit(b, false)
}

func (s *Service) submit(b *types.Block, wait bool) error {
	// The lock pairs the closed check with the channel send so Close
	// cannot close ingestQ between them; the consumer (or quit) always
	// drains pending sends, so the critical section cannot deadlock.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case <-s.quit:
		return ErrClosed
	default:
	}
	item := ingested{block: b, at: time.Now()}
	if !wait {
		select {
		case s.ingestQ <- item:
		default:
			s.rejected.Add(1)
			s.tel.StreamRejected.Inc()
			return ErrQueueFull
		}
	} else {
		select {
		case s.ingestQ <- item:
		case <-s.quit:
			return ErrClosed
		}
	}
	s.accepted.Add(1)
	s.tel.StreamAccepted.Inc()
	s.tel.StreamQueueDepth[telemetry.StagePrefetch].Add(1)
	s.firstAccept.CompareAndSwap(0, time.Now().UnixNano())
	return nil
}

// Close stops accepting blocks and begins the graceful drain: every
// already-accepted block still flows through prefetch, execute and
// commit. Close is idempotent and returns immediately; Wait blocks
// until the drain completes.
func (s *Service) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.ingestQ)
}

// Wait blocks until the pipeline has fully drained (or halted) and
// returns the final service report. The error is the first pipeline
// failure — an invalid replay, or a shadow-validation mismatch unless
// ShadowLogOnly is set.
func (s *Service) Wait() (*Report, error) {
	<-s.done
	return s.report(), s.err
}

// Drain is Close followed by Wait.
func (s *Service) Drain() (*Report, error) {
	s.Close()
	return s.Wait()
}

// beginWork marks a stage as busy processing (not channel-waiting) and
// records pipeline overlap when at least one other stage already is.
func (s *Service) beginWork() time.Time {
	if s.busyStages.Add(1) >= 2 {
		s.overlap.Add(1)
		s.tel.StreamOverlap.Inc()
	}
	return time.Now()
}

// endWork closes the busy window beginWork opened.
func (s *Service) endWork(stage telemetry.StreamStage, start time.Time) {
	s.busyStages.Add(-1)
	ns := uint64(time.Since(start).Nanoseconds())
	s.stageBusyNS[stage].Add(ns)
	s.tel.StreamStageBusyNS[stage].Add(ns)
}

// prefetchLoop decodes each accepted block — conflict DAG, golden
// sequential traces/receipts and symbol tables — one block ahead of
// execution, speculatively against a pinned snapshot of the head. It
// never rejects: validity is judged by the execute stage against the
// true chained pre-state.
func (s *Service) prefetchLoop() {
	defer close(s.execQ)
	for item := range s.ingestQ {
		s.tel.StreamQueueDepth[telemetry.StagePrefetch].Add(-1)
		start := s.beginWork()
		pre := prefetch(s.store, item.block)
		s.endWork(telemetry.StagePrefetch, start)
		pre.accepted = item.at
		select {
		case s.execQ <- pre:
			s.tel.StreamQueueDepth[telemetry.StageExecute].Add(1)
		case <-s.quit:
			return
		}
	}
}

// executeLoop replays each prepared block on the configured engine at
// the exact chained pre-state and learns its hotspots for the next
// block — the paper's block-interval Contract Table warm-up, now
// pipelined. Before each block it waits for every previously executed
// block to fold into the head, then revalidates the speculative decode
// against the folds that landed since the prefetch snapshot; a stale or
// failed decode is retried once at the true pre-state, and only a
// failure there counts the block invalid (counted, logged, skipped: a
// service drops a bad block, it does not die with it).
func (s *Service) executeLoop() {
	defer close(s.commitQ)
	var folds uint64 // blocks this loop has sent downstream to fold
	var learned learnCounts
	for pre := range s.execQ {
		s.tel.StreamQueueDepth[telemetry.StageExecute].Add(-1)
		if !s.store.WaitHeight(folds) {
			return // halted while waiting
		}
		start := s.beginWork()
		if s.execHook != nil {
			s.execHook()
		}
		head := s.store.Head()
		if pre.err != nil || s.store.Invalidated(pre.prep.BaseReads, pre.prep.Height) {
			prep, err := core.PrepareBlock(head, pre.block)
			if err != nil {
				s.endWork(telemetry.StageExecute, start)
				s.invalid.Add(1)
				s.tel.StreamInvalid.Inc()
				s.logf("stream: block %s rejected: %v", pre.block.Hash(), err)
				continue
			}
			pre.prep = prep
		}
		pre.digest = pre.prep.DigestAt(head, pre.block.Header.Coinbase)
		pre.seq = folds
		res, err := s.acc.ReplayWith(pre.block, pre.prep.Traces, pre.prep.Receipts, pre.digest, s.cfg.Mode,
			core.ReplayOpts{Head: head, Tel: s.tel})
		if err == nil && s.cfg.HotspotTopN > 0 {
			s.acc.LearnHotspots(pre.prep.Traces, s.cfg.HotspotTopN)
			learned = s.publishLearn(learned)
		}
		s.endWork(telemetry.StageExecute, start)
		if err != nil {
			s.fail(fmt.Errorf("stream: executing block %s: %w", pre.block.Hash(), err))
			return
		}
		folds++
		select {
		case s.commitQ <- &executed{pre: pre, res: res}:
			s.tel.StreamQueueDepth[telemetry.StageCommit].Add(1)
		case <-s.quit:
			return
		}
	}
}

// learnCounts is the Contract Table's running learn accounting: traces
// merged, and their split into analysed and reused.
type learnCounts struct{ offered, analyzed, reused uint64 }

// publishLearn adds what the table learned since prev to the telemetry
// counters — once per block, so the per-trace learn path carries no
// atomics — and returns the new totals. Offered comes from the entries'
// sample counts, independently of the analysed/reused split it must
// equal. It goes first: a live snapshot then never sees the split ahead
// of it.
func (s *Service) publishLearn(prev learnCounts) learnCounts {
	now := learnCounts{offered: s.acc.Table.Samples()}
	now.analyzed, now.reused = s.acc.Table.LearnCounts()
	s.tel.HotspotLearnOffered.Add(now.offered - prev.offered)
	s.tel.HotspotLearnAnalyzed.Add(now.analyzed - prev.analyzed)
	s.tel.HotspotLearnReused.Add(now.reused - prev.reused)
	return now
}

// commitLoop publishes results in stream order: it folds each block's
// write-set into the canonical head first — unblocking the execute
// stage, which waits for the fold before running the next block — then
// shadow-validates the sampled blocks against a snapshot of the chained
// pre-state pinned before the fold (not genesis), concurrently with the
// next block's execution. A shadow mismatch halts the pipeline (unless
// ShadowLogOnly), so the optimistically folded head of a bad block is
// never served beyond the failure. Per-block end-to-end latency lands
// in the telemetry histogram.
func (s *Service) commitLoop() {
	defer close(s.done)
	stride := shadowStride(s.cfg.ShadowSample)
	for ex := range s.commitQ {
		s.tel.StreamQueueDepth[telemetry.StageCommit].Add(-1)
		start := s.beginWork()
		prep := ex.pre.prep
		shadow := stride > 0 && ex.pre.seq%stride == 0
		var pre *mvstate.Snapshot
		if shadow {
			pre = s.store.Pin()
		}
		s.store.Commit(prep.WriteKeys, prep.WriteVals, ex.pre.block.Header.Coinbase, &prep.Fees)
		if s.cfg.VerifyChain {
			if err := verifyFold(s.store, ex.pre.digest); err != nil {
				if pre != nil {
					pre.Close()
				}
				s.endWork(telemetry.StageCommit, start)
				s.fail(fmt.Errorf("stream: after folding block %s: %w", ex.pre.block.Hash(), err))
				return
			}
		}
		if shadow {
			s.shadowChecks.Add(1)
			s.tel.StreamShadowChecks.Inc()
			err := difftest.OracleCheckAt(pre, ex.pre.block, prep.Receipts, ex.pre.digest, ex.res)
			pre.Close()
			if err != nil {
				s.shadowFails.Add(1)
				s.tel.StreamShadowFails.Inc()
				if s.cfg.ShadowLogOnly {
					s.logf("stream: shadow validation of block %s FAILED: %v", ex.pre.block.Hash(), err)
				} else {
					s.endWork(telemetry.StageCommit, start)
					s.fail(fmt.Errorf("stream: shadow validation of block %s: %w", ex.pre.block.Hash(), err))
					return
				}
			}
		}
		s.committed.Add(1)
		s.committedTxs.Add(uint64(len(ex.pre.block.Transactions)))
		s.tel.StreamCommitted.Inc()
		s.tel.StreamCommittedTxs.Add(uint64(len(ex.pre.block.Transactions)))
		s.tel.Latency(s.label).Record(uint64(time.Since(ex.pre.accepted).Nanoseconds()))
		s.lastCommit.Store(time.Now().UnixNano())
		s.endWork(telemetry.StageCommit, start)
	}
}

// verifyFold is the -verify-chain check after a fold: the head summed
// from scratch must equal both the store's accumulator and the digest
// the block was priced at. The from-scratch sum shares no state with the
// accumulator, so it also catches a head changed outside Commit.
func verifyFold(st *mvstate.Store, priced types.Hash) error {
	acc, scratch := st.HeadDigest(), st.HeadDB().Digest()
	if acc != scratch || acc != priced {
		return fmt.Errorf("head digest %s (from scratch %s) != priced digest %s", acc, scratch, priced)
	}
	return nil
}

// shadowStride converts a sample fraction to a deterministic stride:
// every stride-th prepared block is shadow-checked (0 = off).
func shadowStride(sample float64) uint64 {
	if sample <= 0 {
		return 0
	}
	stride := uint64(1/sample + 0.5)
	if stride < 1 {
		stride = 1
	}
	return stride
}
