package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mtpu/internal/engine"
	"mtpu/internal/evm"
	"mtpu/internal/state"
	"mtpu/internal/stream"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
)

// inputs is what set-up hands the measured phases: the stream as RLP
// bytes — the only form in which blocks enter the program — and the
// genesis state the chain starts from.
type inputs struct {
	raws    [][]byte
	genesis *state.StateDB
	txs     int // transactions per block, fixed per workload
}

// setup opens the workload's source, materialises and RLP-encodes every
// block and takes genesis. Its wall time is setup_s.
func setup(w workloadDef, seed int64) (*inputs, error) {
	spec, err := w.spec(seed)
	if err != nil {
		return nil, err
	}
	src, err := spec.OpenSource()
	if err != nil {
		return nil, err
	}
	in := &inputs{genesis: src.Genesis()}
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		in.txs = len(b.Transactions)
		in.raws = append(in.raws, b.EncodeRLP())
	}
	if want := max(w.n, w.k); len(in.raws) != want {
		return nil, fmt.Errorf("source produced %d blocks, want %d", len(in.raws), want)
	}
	return in, nil
}

// reference replays the stream sequentially over one evolving StateDB —
// no service, no overlay, no engine — and returns the head digests at
// heights n and k: the ground truth every phase's head digest is held to.
func reference(in *inputs, n, k int) (atN, atK types.Hash, err error) {
	st := in.genesis.Copy()
	for i, raw := range in.raws {
		b, err := types.DecodeBlockRLP(raw)
		if err != nil {
			return atN, atK, err
		}
		if _, err := evm.ExecuteBlockSequential(st, b, nil); err != nil {
			return atN, atK, fmt.Errorf("reference block %d: %w", i, err)
		}
		st.DiscardJournal()
		if i+1 == n {
			atN = st.Digest()
		}
		if i+1 == k {
			atK = st.Digest()
		}
	}
	return atN, atK, nil
}

// serveConfig is the service exactly as mtpu-serve starts it by default,
// on a private telemetry registry so each phase's counters stand alone.
func serveConfig(mode engine.Mode, genesis *state.StateDB) stream.Config {
	return stream.Config{
		Mode:         mode,
		Genesis:      genesis,
		NumPUs:       servePUs,
		Queue:        serveQueue,
		HotspotTopN:  serveHotspotTop,
		ShadowSample: serveShadowSample,
		Tel:          telemetry.New(),
		Logf:         log.New(os.Stderr, "", 0).Printf,
	}
}

// streamStats accumulates what the service reports about itself over
// one phase (several services in the sync phase).
type streamStats struct {
	attempted int
	failed    int
	committed uint64
	busyNS    [telemetry.NumStreamStages]float64
	useful    uint64 // speculative decodes kept
	overlap   uint64
	cpu       time.Duration
	wall      time.Duration
}

// verifyService applies the per-service verification rules to a drained
// service: head digest against the reference, the stream and mvstate
// counter identities, no shadow failure.
func verifyService(rep *stream.Report, snap telemetry.Snapshot, want types.Hash) error {
	if rep.HeadDigest != want.String() {
		return fmt.Errorf("head digest %s at height %d != sequential reference %s", rep.HeadDigest, rep.Height, want)
	}
	if snap.Stream == nil || snap.MVState == nil {
		return fmt.Errorf("telemetry snapshot has no stream/mvstate section")
	}
	if err := snap.Stream.Check(true); err != nil {
		return err
	}
	if err := snap.MVState.Check(); err != nil {
		return err
	}
	if rep.ShadowFails != 0 {
		return fmt.Errorf("%d shadow validations failed", rep.ShadowFails)
	}
	return nil
}

// absorb verifies one drained service and folds it into the stats. A
// service that fails any rule fails all its blocks.
func (s *streamStats) absorb(attempted int, rep *stream.Report, snap telemetry.Snapshot, want types.Hash) error {
	s.attempted += attempted
	if err := verifyService(rep, snap, want); err != nil {
		s.failed += attempted
		return err
	}
	s.failed += attempted - int(rep.Committed)
	s.committed += rep.Committed
	for st := telemetry.StreamStage(0); st < telemetry.NumStreamStages; st++ {
		s.busyNS[st] += rep.StageBusyMS[st.String()] * 1e6
	}
	s.useful += snap.MVState.Revalidations - snap.MVState.Invalidations
	s.overlap += rep.Overlap
	return nil
}

// metrics writes the phase's six stream.<phase>.* numbers.
func (s *streamStats) metrics(phase string, out map[string]float64) {
	per := func(v float64) float64 {
		if s.committed == 0 {
			return 0
		}
		return v / float64(s.committed)
	}
	p := "stream." + phase + "."
	out[p+"prefetch_busy_us_per_block"] = per(s.busyNS[telemetry.StagePrefetch] / 1e3)
	out[p+"execute_busy_us_per_block"] = per(s.busyNS[telemetry.StageExecute] / 1e3)
	out[p+"commit_busy_us_per_block"] = per(s.busyNS[telemetry.StageCommit] / 1e3)
	out[p+"prefetch_useful_ratio"] = per(float64(s.useful))
	out[p+"overlap_per_block"] = per(float64(s.overlap))
	if s.wall > 0 {
		out[p+"cpu_cores_busy"] = s.cpu.Seconds() / s.wall.Seconds()
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// syncResult is the closed-loop phase's outcome.
type syncResult struct {
	stats       streamStats
	passBPS     []float64 // blocks/s of each pass
	passRSSMB   []float64 // peak RSS within each pass
	digest      string
	allocKB     float64 // per block
	mallocs     float64 // per block
	gcCycles    float64
	verifyError error
}

// runSync is the catch-up model: one submitter calls blocking Submit
// back-to-back for all n blocks and drains, a closed loop with one
// client. Each pass is one service lifetime from genesis on a heap
// returned to the OS, so its peak RSS is its own; the median pass gives
// sync_blocks_per_s and peak_rss_mb.
func runSync(w workloadDef, mode engine.Mode, in *inputs, want types.Hash) *syncResult {
	res := &syncResult{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for pass := 0; pass < w.passes; pass++ {
		resetPeakRSS()
		svc, err := stream.New(serveConfig(mode, in.genesis))
		if err != nil {
			res.verifyError = err
			res.stats.attempted += w.n
			res.stats.failed += w.n
			continue
		}
		cpu0, t0 := cpuTime(), time.Now()
		for _, raw := range in.raws[:w.n] {
			b, err := types.DecodeBlockRLP(raw)
			if err != nil {
				break
			}
			if svc.Submit(b) != nil {
				break // halted; Drain reports why
			}
		}
		rep, err := svc.Drain()
		res.stats.cpu += cpuTime() - cpu0
		res.stats.wall += time.Since(t0)
		if verr := res.stats.absorb(w.n, rep, svc.Tel().Snapshot(), want); err == nil {
			err = verr
		}
		if err != nil {
			res.verifyError = fmt.Errorf("sync pass %d: %w", pass, err)
			continue
		}
		res.digest = rep.HeadDigest
		res.passBPS = append(res.passBPS, rep.BlocksPerSec)
		res.passRSSMB = append(res.passRSSMB, peakRSSMB())
	}
	runtime.ReadMemStats(&after)
	blocks := float64(w.n * w.passes)
	res.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / blocks
	res.mallocs = float64(after.Mallocs-before.Mallocs) / blocks
	res.gcCycles = float64(after.NumGC - before.NumGC)
	return res
}

// pacedResult is the open-loop phase's outcome.
type pacedResult struct {
	stats        streamStats
	p50MS, p90MS float64
	samples      int
	lateP99MS    float64
	watchResUS   float64
	replayCycles uint64
	digest       string
	verifyError  error
	late         bool // verifyError is the generator-lateness rule
}

// runPaced is the chain-tip model: a fresh service receives the first k
// blocks on a fixed schedule, whatever its progress. Block i's latency
// runs from the instant it was due — never from the Submit call, so a
// stall charges every block it delays — to the first instant a watcher
// sees Height() ≥ i+1.
func runPaced(w workloadDef, mode engine.Mode, in *inputs, want types.Hash, warmup int) *pacedResult {
	res := &pacedResult{}
	svc, err := stream.New(serveConfig(mode, in.genesis))
	if err != nil {
		res.verifyError = err
		res.stats.attempted, res.stats.failed = w.k, w.k
		return res
	}
	interval := time.Duration(float64(time.Second) / w.rate)
	visible := make([]time.Time, w.k)
	var gaps []time.Duration // between consecutive watcher reads

	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		seen, last := 0, time.Now()
		for stopped := false; !stopped; {
			// Checked before the read, so the last read follows the drain.
			select {
			case <-stop:
				stopped = true
			default:
				time.Sleep(50 * time.Microsecond)
			}
			h := int(svc.Height())
			now := time.Now()
			gaps = append(gaps, now.Sub(last))
			last = now
			for ; seen < h && seen < w.k; seen++ {
				visible[seen] = now
			}
		}
	}()

	cpu0 := cpuTime()
	start := time.Now().Add(interval)
	late := make([]time.Duration, 0, w.k)
	for i := 0; i < w.k; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		late = append(late, time.Since(due))
		b, err := types.DecodeBlockRLP(in.raws[i])
		if err != nil {
			break
		}
		if svc.Submit(b) != nil {
			break
		}
	}
	rep, err := svc.Drain()
	res.stats.cpu = cpuTime() - cpu0
	res.stats.wall = time.Since(start)
	close(stop)
	watcher.Wait()

	snap := svc.Tel().Snapshot()
	if verr := res.stats.absorb(w.k, rep, snap, want); err == nil {
		err = verr
	}
	res.lateP99MS = ms(percentile(late, 0.99))
	res.watchResUS = float64(percentile(gaps, 0.99)) / 1e3
	if err == nil && percentile(late, 0.99) > interval/10 {
		// A generator this late no longer offered the schedule it
		// claims; the latencies would describe the generator.
		err = fmt.Errorf("generator lateness p99 %.3f ms exceeds 10%% of the %.1f ms block interval: paced numbers invalid",
			res.lateP99MS, ms(interval))
		res.stats.failed = w.k
		res.late = true
	}
	if err != nil {
		res.verifyError = fmt.Errorf("paced: %w", err)
		return res
	}
	res.digest = rep.HeadDigest
	res.replayCycles = snap.ReplayCycles

	var lat []time.Duration
	for i := warmup; i < w.k; i++ {
		if visible[i].IsZero() {
			continue // uncommitted; already counted failed
		}
		lat = append(lat, visible[i].Sub(start.Add(time.Duration(i)*interval)))
	}
	res.samples = len(lat)
	res.p50MS = ms(percentile(lat, 0.50))
	res.p90MS = ms(percentile(lat, 0.90))
	return res
}

// nap sleeps on the OS clock: Go's own timers round a short sleep up to
// about a millisecond when the process is otherwise idle. It holds a P
// in a system call, so it is for short waits while the pipeline is idle.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early return only shortens the nap
}

// sleepUntil parks on the Go timer to two milliseconds before the
// instant — a long nap would hold one of the few Ps in a system call —
// then closes in with short naps and yields through the last stretch, so
// the generator is late by microseconds, not by a timer tick.
func sleepUntil(due time.Time) {
	time.Sleep(time.Until(due) - 2*time.Millisecond)
	for time.Until(due) > 100*time.Microsecond {
		nap(50 * time.Microsecond)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// resetPeakRSS returns the free heap to the OS and restarts the kernel's
// peak-RSS counter (VmHWM) from the current RSS, so the next reading is
// the peak of what ran in between. Where /proc/self/clear_refs cannot be
// written the counter keeps running and readings are peaks so far.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB since the
// last reset.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile is the nearest-rank percentile of the samples (0 if none).
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
