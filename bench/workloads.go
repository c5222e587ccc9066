package main

import (
	"fmt"
	"math"

	"mtpu/internal/workload"
)

// The service configuration under test: mtpu-serve's flag defaults
// (-pus 4 -queue 8 -hotspot-top 8 -shadow-sample 0.1, no -verify-chain).
const (
	servePUs          = 4
	serveQueue        = 8
	serveHotspotTop   = 8
	serveShadowSample = 0.1
	shadowStride      = 10 // every 10th block, as shadow-sample 0.1 resolves
)

// defaultSeconds is the run length the block counts below are sized
// for; -seconds scales n and k by seconds/defaultSeconds.
const defaultSeconds = 30

// setupRuns is how often set-up is repeated; it takes a few hundredths
// of a second, so one reading would be noise and the median is reported.
const setupRuns = 11

// pacedAttempts bounds how often the paced phase is repeated when the
// generator could not hold its schedule (verification rule 4).
const pacedAttempts = 3

// warmupBlocks are excluded from the paced percentiles: the Contract
// Table and the pipeline pools fill during them.
const warmupBlocks = 10

// workloadDef fixes one workload's shape. Everything is a constant so
// that one name measures one thing on every commit; the rate is about
// half the seed commit's sync capacity, so paced latency measures a
// block's critical path and not a saturated queue.
type workloadDef struct {
	name   string
	source string  // stream or scenario spec without blocks= and seed=
	engine string  // registered engine name
	n      int     // blocks of one sync pass (the stream's first n)
	passes int     // sync passes, each a fresh service; the median is reported
	k      int     // blocks of the paced and traced phases (its first k)
	rate   float64 // paced schedule, blocks/s
}

var workloads = []workloadDef{
	{name: "token-dep30", source: "txs=32,dep=0.3",
		engine: "spatial-temporal+redundancy+hotspot", n: 200, passes: 5, k: 400, rate: 50},
	{name: "erc20-bigblock", source: "scenario=erc20-mix,txs=192,skew=1.2,accounts=256",
		engine: "spatial-temporal+redundancy+hotspot", n: 60, passes: 5, k: 120, rate: 10},
	{name: "large-state", source: "txs=32,dep=0.3,accounts=4096",
		engine: "spatial-temporal+redundancy+hotspot", n: 60, passes: 5, k: 120, rate: 10},
	{name: "airdrop-stm", source: "scenario=airdrop,txs=32,skew=1.2",
		engine: "block-stm", n: 150, passes: 5, k: 300, rate: 30},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// scaled sizes the workload for a run of the given length. The paced
// phase keeps enough blocks past the warm-up for its percentiles.
func (w workloadDef) scaled(seconds int) workloadDef {
	f := float64(seconds) / defaultSeconds
	w.n = max(int(math.Round(float64(w.n)*f)), 2*warmupBlocks)
	w.k = max(int(math.Round(float64(w.k)*f)), 2*warmupBlocks)
	return w
}

// spec builds the source spec of the workload's stream, long enough for
// every phase.
func (w workloadDef) spec(seed int64) (workload.SourceSpec, error) {
	return workload.ParseSourceSpec(fmt.Sprintf("%s,blocks=%d,seed=%d", w.source, max(w.n, w.k), seed))
}
