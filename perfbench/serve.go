package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/tsajs/tsajs"
	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/mobility"
)

// Serving set-up shared by serve-open and serve-fleet: the coordinator's
// default configuration as tsajs-loadgen self-hosts it.
const (
	batchWindow   = 20 * time.Millisecond
	solverWorkers = 2
	ttsaBudget    = 4000
	// latencyLimit is the answer time within which a decision counts
	// toward goodput.
	latencyLimit = 50 * time.Millisecond
	// requestTimeout fails a request that gets no answer at all.
	requestTimeout = 10 * time.Second

	openRate      = 2000.0 // requests per second, Poisson
	fleetSize     = 27     // one epoch's slots: 9 cells × 3 subchannels
	fleetMoveProb = 0.1
	fleetStepKm   = 0.060 // over the 50 m delta threshold
	deltaThreshKm = 0.050
	// fleetRequests is how many requests each device of a fleet sends
	// before a fresh fleet (new IDs, new places) takes over: a fleet moves
	// too little within a run for one placement to give a seed-independent
	// utility, so a run averages many. Counting requests rather than time
	// keeps the inputs of each epoch independent of the program's speed.
	fleetRequests = 500
	// fleetMaxRate is the per-device request rate the pre-drawn fleets
	// cover, five times the rate when the benchmark was added; a faster
	// run starts over at the first fleet.
	fleetMaxRate = 5000
)

// serveBench drives a self-hosted coordinator over loopback TCP through
// wirev2 clients from this one process.
type serveBench struct {
	fleet   bool
	seed    uint64
	params  tsajs.Params
	sites   []tsajs.Point
	task    tsajs.Task
	windows []serveInputs

	srv     *tsajs.Coordinator
	clients []*tsajs.CoordinatorClient
}

// serveInputs is everything one window sends, generated before it starts.
type serveInputs struct {
	// Open loop: one fresh device per request, due at its Poisson time.
	open []openRequest
	// Closed loop: the devices of each fleet, in the order they serve.
	fleets [][]fleetDevice
}

// fleetDevice is one device of one fleet: its ID, where it starts, and
// each move of its walk, in request order.
type fleetDevice struct {
	id    string
	start tsajs.Point
	moves []fleetMove
}

// fleetMove places the device at pos from its step-th request on.
type fleetMove struct {
	step int
	pos  tsajs.Point
}

// at is where the device reports itself on its k-th request.
func (f *fleetDevice) at(k int) tsajs.Point {
	j := sort.Search(len(f.moves), func(i int) bool { return f.moves[i].step > k })
	if j == 0 {
		return f.start
	}
	return f.moves[j-1].pos
}

type openRequest struct {
	due time.Duration // since the window start
	id  string
	pos tsajs.Point
}

func newServeBench(fleet bool, seed uint64, windows []time.Duration) *serveBench {
	p := tsajs.DefaultParams()
	b := &serveBench{
		fleet:  fleet,
		seed:   seed,
		params: p,
		sites:  geom.HexLayout(p.NumServers, p.InterSiteKm),
		task:   tsajs.Task{DataBits: p.Workload.DataBits, WorkCycles: p.Workload.WorkCycles},
	}
	for w, d := range windows {
		rng := rand.New(rand.NewPCG(seed, uint64(w)))
		if fleet {
			b.windows = append(b.windows, b.fleetInputs(rng, w, d))
		} else {
			b.windows = append(b.windows, b.openInputs(rng, w, d))
		}
	}
	return b
}

// uniformPoint places a device uniformly over the network: a uniform cell,
// then a uniform point in its hexagon (the cells have equal areas).
func (b *serveBench) uniformPoint(rng *rand.Rand) tsajs.Point {
	site := b.sites[rng.IntN(len(b.sites))]
	return site.Add(geom.RandomInHexagon(geom.HexCircumradius(b.params.InterSiteKm), rng.Float64))
}

// openInputs draws a Poisson arrival schedule at openRate over d.
func (b *serveBench) openInputs(rng *rand.Rand, w int, d time.Duration) serveInputs {
	var in serveInputs
	t := 0.0
	for k := 0; ; k++ {
		t += rng.ExpFloat64() / openRate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return in
		}
		in.open = append(in.open, openRequest{
			due: due,
			id:  fmt.Sprintf("open-%d-%d-%d", b.seed, w, k),
			pos: b.uniformPoint(rng),
		})
	}
}

// fleetInputs places the fleets a window can use, one device per slot
// (three per cell, uniform within it), and draws each device's walk:
// before each request it moves fleetStepKm in a uniform direction with
// probability fleetMoveProb, turning back at the edge of coverage.
func (b *serveBench) fleetInputs(rng *rand.Rand, w int, d time.Duration) serveInputs {
	radius := geom.HexCircumradius(b.params.InterSiteKm)
	var in serveInputs
	fleets := int(math.Ceil(d.Seconds() * fleetMaxRate / fleetRequests))
	for seg := 0; seg < fleets; seg++ {
		fleet := make([]fleetDevice, fleetSize)
		for i := range fleet {
			pos := b.sites[i%len(b.sites)].Add(geom.RandomInHexagon(radius, rng.Float64))
			dev := fleetDevice{id: fmt.Sprintf("fleet-%d-%d-%d-%d", b.seed, w, seg, i), start: pos}
			for k := 1; k < fleetRequests; k++ {
				if rng.Float64() >= fleetMoveProb {
					continue
				}
				a := 2 * math.Pi * rng.Float64()
				step := tsajs.Point{X: fleetStepKm * math.Cos(a), Y: fleetStepKm * math.Sin(a)}
				if next := pos.Add(step); mobility.InCoverage(next, b.sites, radius) {
					pos = next
				} else if next := pos.Sub(step); mobility.InCoverage(next, b.sites, radius) {
					pos = next
				} else {
					continue
				}
				dev.moves = append(dev.moves, fleetMove{step: k, pos: pos})
			}
			fleet[i] = dev
		}
		in.fleets = append(in.fleets, fleet)
	}
	return in
}

func (b *serveBench) ttsaConfig() tsajs.Config {
	cfg := tsajs.DefaultConfig()
	cfg.MaxEvaluations = ttsaBudget
	return cfg
}

func (b *serveBench) deltaConfig() *tsajs.DeltaConfig {
	if !b.fleet {
		return nil
	}
	return &tsajs.DeltaConfig{MoveThresholdKm: deltaThreshKm}
}

// setUp starts a coordinator, dials the clients, and waits until each
// client has had one decision answered.
func (b *serveBench) setUp() (time.Duration, error) {
	b.close()
	start := time.Now()
	ttsaCfg := b.ttsaConfig()
	srv, err := tsajs.NewCoordinator("127.0.0.1:0", tsajs.CoordinatorConfig{
		Params:      b.params,
		BatchWindow: batchWindow,
		MaxBatch:    b.params.NumServers * b.params.NumChannels,
		Workers:     solverWorkers,
		TTSA:        &ttsaCfg,
		Seed:        b.seed,
		Delta:       b.deltaConfig(),
	})
	if err != nil {
		return 0, err
	}
	b.srv = srv
	for i := 0; i < min(2, runtime.NumCPU()); i++ {
		cl, err := tsajs.DialCoordinatorBinary(srv.Addr().String())
		if err != nil {
			return 0, err
		}
		b.clients = append(b.clients, cl)
	}
	errs := make(chan error, len(b.clients))
	for i, cl := range b.clients {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			defer cancel()
			_, err := cl.Offload(ctx, tsajs.OffloadRequest{
				UserID: fmt.Sprintf("warmup-%d", i), Pos: b.sites[0], Task: b.task,
			})
			errs <- err
		}()
	}
	for range b.clients {
		if err := <-errs; err != nil {
			return 0, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return time.Since(start), nil
}

func (b *serveBench) close() {
	for _, cl := range b.clients {
		_ = cl.Close() // the run is over; nothing to report
	}
	b.clients = nil
	if b.srv != nil {
		_ = b.srv.Close()
		b.srv = nil
	}
}

// measure runs window w for d. With tr set, every Offload gets a span, a
// sampler watches the solve queue, and the window's first epochs go through
// the layer probe afterwards.
func (b *serveBench) measure(w int, d time.Duration, tr *tracer) (window, error) {
	before, latBefore, err := b.snapshot()
	if err != nil {
		return window{}, err
	}
	rc := &recorder{fleet: b.fleet, params: b.params, slots: slotBook{}}
	if tr != nil {
		rc.probe = map[uint64]*servedEpoch{}
		rc.probeFrom = before.Epochs
	}
	p0 := sampleProc()
	stopSampler, depthMax := b.sampleQueue(tr != nil)
	if b.fleet {
		b.runFleet(&b.windows[w], d, rc, tr)
	} else {
		b.runOpen(&b.windows[w], d, rc, tr)
	}
	stopSampler()
	p1 := sampleProc()
	after, latAfter, err := b.snapshot()
	if err != nil {
		return window{}, err
	}

	answered := len(rc.latencies)
	decided := int(after.Offloaded + after.Local - before.Offloaded - before.Local)
	if decided < answered || decided > answered+rc.failed {
		rc.fail("coordinator returned %d decisions for %d answered and %d failed requests", decided, answered, rc.failed)
	}
	if after.Offloaded+after.Local > after.Requests {
		rc.fail("coordinator stats: offloaded %d + local %d > requests %d", after.Offloaded, after.Local, after.Requests)
	}
	win := window{attempted: rc.attempted, failed: rc.failed, checks: rc.checks}
	if extra := rc.checkFailures - len(rc.checks); extra > 0 {
		win.fail("%d more failed checks", extra)
	}

	secs := d.Seconds()
	epochs := float64(after.Epochs - before.Epochs)
	cpuMs, allocs, allocBytes, gcShare := procDelta(p0, p1, answered)
	p50, n := percentile(rc.latencies, 50)
	p99, _ := percentile(rc.latencies, 99)
	win.samples = n
	win.e2e = map[string]float64{
		"latency_p50_ms":       p50,
		"latency_p99_ms":       p99,
		"goodput_rps":          float64(rc.good) / secs,
		"answered_share":       float64(answered) / float64(max(rc.attempted, 1)),
		"utility_per_decision": rc.utility / float64(max(answered, 1)),
		"cpu_ms_per_decision":  cpuMs,
		"epochs_per_s":         epochs / secs,
		"rss_peak_mb":          rssPeakMB(),
	}
	solveMs := float64(after.TotalSolveTime-before.TotalSolveTime) / float64(time.Millisecond)
	deltaEpochs := float64(after.DeltaFullEpochs + after.DeltaRepairEpochs - before.DeltaFullEpochs - before.DeltaRepairEpochs)
	genLate, _ := percentile(rc.lateness, 99)
	epochLatMs := 0.0
	if c := latAfter.count - latBefore.count; c > 0 {
		epochLatMs = (latAfter.sum - latBefore.sum) / float64(c) * 1000
	}
	win.layers = map[string]float64{
		"cran.solve.ms_per_epoch":      solveMs / math.Max(epochs, 1),
		"cran.solve.busy_share":        solveMs / (secs * 1000 * solverWorkers),
		"cran.wire.bytes_per_decision": float64(after.BytesRead+after.BytesWritten-before.BytesRead-before.BytesWritten) / float64(max(answered, 1)),
		"cran.collector.batch_mean":    float64(decided) / math.Max(epochs, 1),
		"cran.collector.epochs_per_s":  epochs / secs,
		"cran.epoch.latency_ms_mean":   epochLatMs,
		"cran.window_and_wire_ms_mean": rc.rttSum/float64(max(answered, 1)) - epochLatMs,
		"cran.queue.depth_max":         depthMax(),
		"cran.queue.shed":              float64(after.ShedQueueFull + after.ShedAdmission + after.ShedExpired - before.ShedQueueFull - before.ShedAdmission - before.ShedExpired),
		"bench.gen_late_p99_ms":        genLate,
		"bench.latency_samples":        float64(n),
		"delta.repair_share":           float64(after.DeltaRepairEpochs-before.DeltaRepairEpochs) / math.Max(deltaEpochs, 1),
		"delta.dirty_share":            float64(after.DeltaDirtyUsers-before.DeltaDirtyUsers) / float64(max(answered, 1)),
		"delta.rows_reused_share":      float64(after.DeltaRowsReused-before.DeltaRowsReused) / float64(max(answered, 1)),
		"go.allocs_per_decision":       allocs,
		"go.alloc_bytes_per_decision":  allocBytes,
		"go.gc_cpu_share":              gcShare,
		"dynamic.solve_ms_per_epoch":   0,
		"dynamic.other_ms_per_epoch":   0,
	}

	if tr != nil {
		for _, ep := range rc.probe {
			if b.fleet {
				// Delta serving sorts each epoch by user ID before solving.
				sort.Slice(ep.reqs, func(i, j int) bool { return ep.reqs[i].id < ep.reqs[j].id })
			} else {
				// The coordinator solves an epoch in the order its requests
				// arrived, which the benchmark cannot see; the send order
				// stands in for it.
				sort.Slice(ep.reqs, func(i, j int) bool { return ep.reqs[i].seq < ep.reqs[j].seq })
			}
		}
		var dcfg *tsajs.DeltaConfig
		if dc := b.deltaConfig(); dc != nil {
			withDefaults := dc.WithDefaults()
			dcfg = &withDefaults
		}
		pr := newProber(tr, b.params)
		if err := pr.probeServed(b.seed, b.ttsaConfig(), dcfg, sortedEpochs(rc.probe), b.task); err != nil {
			return window{}, fmt.Errorf("layer probe: %w", err)
		}
		for k, v := range pr.layerMetrics() {
			win.layers[k] = v
		}
		win.layers["core.evaluations_per_epoch"] = float64(pr.evaluations) / float64(max(pr.epochs, 1))
		// Delta epochs are a pure function of (seed, epoch, request set) and
		// the chain state, which the probe rebuilds from the window's first
		// epoch on, so the fleet's probe must reproduce every decision. The
		// open loop's may differ where requests reached the coordinator in
		// another order than they were sent.
		if b.fleet && pr.matched < pr.epochs {
			win.fail("layer probe reproduced %d of %d served epochs", pr.matched, pr.epochs)
		}
	}
	return win, nil
}

// runOpen sends each request of the schedule at its due time, whatever
// happened to earlier ones, round-robin over the clients. Latency counts
// from the due time, so a stall in the generator or the coordinator
// charges every request it delayed.
func (b *serveBench) runOpen(in *serveInputs, d time.Duration, rc *recorder, tr *tracer) {
	var wg sync.WaitGroup
	start := time.Now()
	for k, q := range in.open {
		if wait := q.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Since(start)
		cl := b.clients[k%len(b.clients)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := b.offload(cl, q.id, q.pos, uint64(k), tr)
			rc.record(uint64(k), q.id, q.pos, q.due, sent, time.Since(start), resp, err)
		}()
	}
	wg.Wait()
}

// runFleet runs the closed loop: each device sends its next request as
// soon as the previous one is answered, until d has passed. After
// fleetRequests requests a device hands over to its successor in the next
// fleet.
func (b *serveBench) runFleet(in *serveInputs, d time.Duration, rc *recorder, tr *tracer) {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < fleetSize; i++ {
		cl := b.clients[i%len(b.clients)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				sent := time.Since(start)
				if sent >= d {
					return
				}
				dev := &in.fleets[n/fleetRequests%len(in.fleets)][i]
				pos := dev.at(n % fleetRequests)
				seq := uint64(i)<<32 | uint64(n)
				resp, err := b.offload(cl, dev.id, pos, seq, tr)
				rc.record(seq, dev.id, pos, 0, sent, time.Since(start), resp, err)
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// offload sends one request, inside a span when traced.
func (b *serveBench) offload(cl *tsajs.CoordinatorClient, id string, pos tsajs.Point, trace uint64, tr *tracer) (tsajs.OffloadResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if tr != nil {
		s := tr.begin("cran.client.offload", trace, -1)
		defer tr.end(s)
	}
	return cl.Offload(ctx, tsajs.OffloadRequest{UserID: id, Pos: pos, Task: b.task})
}

// maxCheckMessages caps the failed-check messages a window keeps; every
// failure still counts.
const maxCheckMessages = 20

// recorder accumulates a window's answers as they arrive. The latency
// sample is the only state it keeps per request, so the benchmark's own
// memory stays small next to the coordinator's at any throughput.
type recorder struct {
	fleet  bool
	params tsajs.Params

	mu            sync.Mutex
	attempted     int
	failed        int // refused, shed, timed out or lost in transport
	good          int // answered within latencyLimit
	utility       float64
	rttSum        float64   // ms, send to answer
	latencies     []float64 // ms, answered requests only
	lateness      []float64 // ms, open loop: how late each request was sent
	checks        []string
	checkFailures int
	slots         slotBook
	// probe collects the request sets of the epochs numbered
	// (probeFrom, probeFrom+probeMaxEpochs] when the window is traced.
	probe     map[uint64]*servedEpoch
	probeFrom uint64
}

func (rc *recorder) fail(format string, args ...any) {
	rc.checkFailures++
	if len(rc.checks) < maxCheckMessages {
		rc.checks = append(rc.checks, fmt.Sprintf(format, args...))
	}
}

// record checks the answer to request seq and folds it into the window's
// tallies. Times are since the window start; due is zero in the closed
// loop, where latency counts from the send.
func (rc *recorder) record(seq uint64, id string, pos tsajs.Point, due, sent, done time.Duration, resp tsajs.OffloadResponse, err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.attempted++
	start := sent
	if !rc.fleet {
		start = due
		rc.lateness = append(rc.lateness, ms(sent-due))
	}
	if err != nil {
		// Failed requests stay out of the percentiles; they count against
		// answered_share and goodput instead.
		rc.failed++
		return
	}
	lat := done - start
	rc.latencies = append(rc.latencies, ms(lat))
	rc.rttSum += ms(done - sent)
	if lat <= latencyLimit {
		rc.good++
	}
	rc.utility += resp.Utility
	p := rc.params
	switch {
	case resp.UserID != id:
		rc.fail("request of %s answered for user %q", id, resp.UserID)
	case resp.Degraded:
		rc.fail("request of %s got a client-side degraded decision", id)
	case !resp.Offload:
	case resp.Server < 0 || resp.Server >= p.NumServers || resp.Channel < 0 || resp.Channel >= p.NumChannels:
		rc.fail("request of %s granted slot (%d,%d) outside the network", id, resp.Server, resp.Channel)
	case !rc.slots.grant(resp.Epoch, resp.Server*p.NumChannels+resp.Channel):
		rc.fail("epoch %d granted server %d channel %d twice", resp.Epoch, resp.Server, resp.Channel)
	}
	if rc.probe != nil && resp.Epoch > rc.probeFrom && resp.Epoch <= rc.probeFrom+probeMaxEpochs {
		ep := rc.probe[resp.Epoch]
		if ep == nil {
			ep = &servedEpoch{epoch: resp.Epoch}
			rc.probe[resp.Epoch] = ep
		}
		slot := [2]int{assign.Local, assign.Local}
		if resp.Offload {
			slot = [2]int{resp.Server, resp.Channel}
		}
		ep.reqs = append(ep.reqs, servedRequest{seq: seq, id: id, pos: pos, slot: slot})
	}
}

// sampleQueue samples the solve-queue depth every millisecond while on is
// set. stop ends the sampler and waits for it; depthMax reads the largest
// depth seen.
func (b *serveBench) sampleQueue(on bool) (stop func(), depthMax func() float64) {
	var maxDepth int
	if !on {
		return func() {}, func() float64 { return 0 }
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				maxDepth = max(maxDepth, b.srv.Stats().QueueDepth)
			}
		}
	}()
	return func() { close(quit); <-done }, func() float64 { return float64(maxDepth) }
}

// histogramReading is the count and sum of one coordinator histogram.
type histogramReading struct {
	count uint64
	sum   float64
}

// snapshot reads the coordinator's Stats and its epoch-latency histogram.
func (b *serveBench) snapshot() (tsajs.CoordinatorStats, histogramReading, error) {
	st := b.srv.Stats()
	blob, err := b.srv.Metrics().RenderJSON()
	if err != nil {
		return st, histogramReading{}, fmt.Errorf("render metrics: %w", err)
	}
	var families map[string][]struct {
		Histogram *struct {
			Count uint64  `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"histogram"`
	}
	if err := json.Unmarshal(blob, &families); err != nil {
		return st, histogramReading{}, fmt.Errorf("parse metrics: %w", err)
	}
	series := families["tsajs_coordinator_epoch_latency_seconds"]
	if len(series) != 1 || series[0].Histogram == nil {
		return st, histogramReading{}, errors.New("coordinator exports no epoch latency histogram")
	}
	return st, histogramReading{count: series[0].Histogram.Count, sum: series[0].Histogram.Sum}, nil
}

// slotBook remembers the slots each epoch granted, as a bitmask over
// server·channels+channel (the default network has 27 slots).
type slotBook map[uint64]uint64

// grant records slot as granted in epoch and reports whether it was still
// free: one epoch's decision gives each subchannel of a cell to at most
// one user.
func (sb slotBook) grant(epoch uint64, slot int) bool {
	bit := uint64(1) << slot
	if sb[epoch]&bit != 0 {
		return false
	}
	sb[epoch] |= bit
	return true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
