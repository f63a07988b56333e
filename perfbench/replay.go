package main

import (
	"fmt"
	"math"
	"time"

	"github.com/tsajs/tsajs"
)

// Replay set-up shared by replay-walk and replay-delta.
const (
	replayUsers  = 80
	replayActive = 0.6
	replayBudget = 1500
	// replayEpochs is one replay's length and replaySeeds the number of
	// distinct replays (sub-seeds of the workload seed) a window runs
	// before anything else: utility_per_decision averages them, because
	// one 250-epoch cold-start replay's utility varies by a third from
	// seed to seed. The window then cycles through the replays again until
	// its time is up; each repeat is checked against the first run of its
	// sub-seed, and the rates are medians over all runs.
	replayEpochs = 250
	replaySeeds  = 16
)

// replayBench runs dynamic.Run offline: the paper's algorithm path with no
// network.
type replayBench struct {
	seed uint64
	cfg  tsajs.DynamicConfig    // sub-seed 0's replay
	refs []*tsajs.DynamicResult // first result of each sub-seed
}

func newReplayBench(withDelta bool, seed uint64) *replayBench {
	p := tsajs.DefaultParams()
	p.NumUsers = replayUsers
	ttsaCfg := tsajs.DefaultConfig()
	ttsaCfg.MaxEvaluations = replayBudget
	// Mobility and epoch length are spelled out (they are dynamic.Run's
	// defaults) because the layer probe re-derives the walk from them.
	cfg := tsajs.DynamicConfig{
		Params:       p,
		Epochs:       replayEpochs,
		EpochSeconds: 10,
		ActiveProb:   replayActive,
		SpeedKmHMin:  1,
		SpeedKmHMax:  5,
		TTSAConfig:   &ttsaCfg,
	}
	if withDelta {
		cfg.Delta = &tsajs.DeltaConfig{MoveThresholdKm: deltaThreshKm}
	}
	cfg.Seed = subSeed(seed, 0)
	return &replayBench{seed: seed, cfg: cfg, refs: make([]*tsajs.DynamicResult, replaySeeds)}
}

// subSeed is the seed of the workload seed's i-th replay.
func subSeed(seed uint64, i int) uint64 { return seed*replaySeeds + uint64(i) }

// setUp times the set-up of the window's replays: a one-epoch replay of
// every sub-seed, that is everything a replay builds before its first
// decision, plus that decision. One such replay takes about 2 ms, too
// short to time steadily on its own.
func (b *replayBench) setUp() (time.Duration, error) {
	start := time.Now()
	for sub := 0; sub < replaySeeds; sub++ {
		cfg := b.cfg
		cfg.Epochs = 1
		cfg.Seed = subSeed(b.seed, sub)
		if _, err := tsajs.RunDynamic(cfg); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func (b *replayBench) close() {}

func (b *replayBench) measure(w int, d time.Duration, tr *tracer) (window, error) {
	var win window
	// Every repeat of a sub-seed's replay does bit-identical work, so the
	// end-to-end timings take, per sub-seed, the least wall time of its
	// repeats and the least solve time of each of its epochs. A pause from
	// outside the process (the host stealing the CPU) then moves them only
	// when it hits the same epoch in every repeat. Each sub-seed runs at
	// least twice.
	best := make([]*bestReplay, replaySeeds)
	var wall, solve time.Duration
	var epochs, decisions int
	p0 := sampleProc()
	start := time.Now()
	for rep := 0; rep < 2*replaySeeds || time.Since(start) < d; rep++ {
		sub := rep % replaySeeds
		cfg := b.cfg
		cfg.Seed = subSeed(b.seed, sub)
		id := -1
		if tr != nil {
			id = tr.begin("dynamic.run", uint64(rep), -1)
		}
		t0 := time.Now()
		res, err := tsajs.RunDynamic(cfg)
		elapsed := time.Since(t0)
		if tr != nil {
			tr.end(id)
		}
		win.attempted += cfg.Epochs
		if err != nil {
			return window{}, fmt.Errorf("replay: %w", err)
		}
		if b.refs[sub] == nil {
			b.refs[sub] = res
		}
		b.check(&win, res, b.refs[sub])

		if best[sub] == nil {
			best[sub] = &bestReplay{wall: elapsed, solve: make([]time.Duration, len(res.Epochs))}
			for i, e := range res.Epochs {
				best[sub].solve[i] = e.SolveTime
			}
		}
		best[sub].wall = min(best[sub].wall, elapsed)
		for i, e := range res.Epochs {
			best[sub].solve[i] = min(best[sub].solve[i], e.SolveTime)
			decisions += e.Active
		}
		wall += elapsed
		solve += res.TotalSolveTime
		epochs += len(res.Epochs)
	}
	p1 := sampleProc()

	var solveMs []float64
	var bestWall time.Duration
	good := 0
	for sub, bst := range best {
		bestWall += bst.wall
		for i, e := range b.refs[sub].Epochs {
			if e.Active == 0 {
				continue
			}
			solveMs = append(solveMs, ms(bst.solve[i]))
			if bst.solve[i] <= latencyLimit {
				good += e.Active
			}
		}
	}

	// Utility and the layer counters are exact per seed: they come from
	// the first run of every sub-seed.
	var solved, totalEvals, dirty, repairs, firstDecisions int
	var utility float64
	for _, r := range b.refs {
		utility += r.TotalUtility
		totalEvals += r.TotalEvaluations
		dirty += r.DeltaDirtyUsers
		repairs += r.DeltaRepairEpochs
		for _, e := range r.Epochs {
			if e.Active > 0 {
				solved++
				firstDecisions += e.Active
			}
		}
	}
	cpuMs, allocs, allocBytes, gcShare := procDelta(p0, p1, decisions)
	p50, samples := percentile(solveMs, 50)
	p99, _ := percentile(solveMs, 99)
	win.samples = samples
	win.e2e = map[string]float64{
		"latency_p50_ms":       p50,
		"latency_p99_ms":       p99,
		"goodput_rps":          float64(good) / bestWall.Seconds(),
		"answered_share":       float64(win.attempted-win.failed) / float64(win.attempted),
		"utility_per_decision": utility / float64(max(firstDecisions, 1)),
		"cpu_ms_per_decision":  cpuMs,
		"epochs_per_s":         float64(replaySeeds*b.cfg.Epochs) / bestWall.Seconds(),
		"rss_peak_mb":          rssPeakMB(),
	}

	win.layers = map[string]float64{
		"core.evaluations_per_epoch":   float64(totalEvals) / float64(max(solved, 1)),
		"dynamic.solve_ms_per_epoch":   ms(solve) / float64(epochs),
		"dynamic.other_ms_per_epoch":   ms(wall-solve) / float64(epochs),
		"bench.latency_samples":        float64(samples),
		"go.allocs_per_decision":       allocs,
		"go.alloc_bytes_per_decision":  allocBytes,
		"go.gc_cpu_share":              gcShare,
		"delta.repair_share":           0,
		"delta.dirty_share":            0,
		"delta.rows_reused_share":      0,
		"cran.solve.ms_per_epoch":      0,
		"cran.solve.busy_share":        0,
		"cran.wire.bytes_per_decision": 0,
		"cran.collector.batch_mean":    0,
		"cran.collector.epochs_per_s":  0,
		"cran.epoch.latency_ms_mean":   0,
		"cran.window_and_wire_ms_mean": 0,
		"cran.queue.depth_max":         0,
		"cran.queue.shed":              0,
		"bench.gen_late_p99_ms":        0,
	}
	if b.cfg.Delta != nil {
		win.layers["delta.repair_share"] = float64(repairs) / float64(max(solved, 1))
		win.layers["delta.dirty_share"] = float64(dirty) / float64(max(firstDecisions, 1))
		win.layers["delta.rows_reused_share"] = float64(firstDecisions-dirty) / float64(max(firstDecisions, 1))
	}

	if tr != nil {
		pr := newProber(tr, b.cfg.Params)
		if err := pr.probeReplay(b.cfg, b.refs[0]); err != nil {
			return window{}, fmt.Errorf("layer probe: %w", err)
		}
		for k, v := range pr.layerMetrics() {
			win.layers[k] = v
		}
		if pr.matched < pr.epochs {
			win.fail("layer probe reproduced %d of %d replay epochs", pr.matched, pr.epochs)
		}
	}
	return win, nil
}

// bestReplay is the least wall time of one sub-seed's replays in a window
// and the least solve time of each of its epochs.
type bestReplay struct {
	wall  time.Duration
	solve []time.Duration
}

// check compares a repeat with the first replay of the seed: utility and
// evaluation counts must be bit-identical, and no epoch may offload more
// users than it had active.
func (b *replayBench) check(win *window, res, ref *tsajs.DynamicResult) {
	for _, e := range res.Epochs {
		if e.Offloaded > e.Active {
			win.failed++
			win.fail("epoch %d offloaded %d of %d active users", e.Epoch, e.Offloaded, e.Active)
		}
	}
	if math.Float64bits(res.TotalUtility) != math.Float64bits(ref.TotalUtility) {
		win.fail("replay utility %v differs from the first run's %v", res.TotalUtility, ref.TotalUtility)
	}
	if res.TotalEvaluations != ref.TotalEvaluations {
		win.fail("replay evaluations %d differ from the first run's %d", res.TotalEvaluations, ref.TotalEvaluations)
	}
}
