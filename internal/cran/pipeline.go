package cran

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/portfolio"
	"github.com/tsajs/tsajs/internal/radio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/units"
)

// ErrQueueFull is reported (as the response Error of every request in the
// batch) when an epoch is flushed while the solve queue is at capacity. The
// coordinator fails the batch immediately — fail-fast backpressure — rather
// than buffering unboundedly or blocking collection of the next epoch.
var ErrQueueFull = errors.New("cran: solve queue full, epoch rejected")

// gainStreamLabel separates the channel-estimation RNG stream from the
// solver stream within one epoch (the historical constant, kept so epoch
// gains are bit-identical to the pre-pipeline coordinator).
const gainStreamLabel = 0xc51

// epochBatch is one collected epoch in flight between the batch collector
// and a solver worker. The epoch number and both derived RNG streams are
// stamped at enqueue time: simrand.Derive depends only on the parent seed,
// so deriving at collection is bit-identical to deriving at solve time, and
// per-epoch results do not depend on which worker solves the batch or when.
type epochBatch struct {
	epoch uint64
	// cell is the single cell this epoch schedules on partitioned
	// coordinators (every request in the batch resolved to it at admission);
	// -1 on unpartitioned coordinators, where one epoch spans the whole
	// network. Partitioned epochs solve a one-site scenario and epoch numbers
	// count per cell, not per coordinator.
	cell      int
	batch     []pending
	tier      epochTier
	solveRNG  *simrand.Source
	gainRNG   *simrand.Source
	collected time.Time
	// plan, when non-nil, routes this full-tier epoch through the
	// heterogeneous portfolio: slot i runs roster member plan[i]. Stamped
	// in the collector (fixed round-robin, or the adaptive selector's
	// allocation); nil epochs dispatch to the single-chain tier solvers as
	// before the portfolio existed.
	plan []int
	// dequeued is stamped by the solver worker when it picks the epoch up —
	// after any injected chaos delay, immediately before the expiry filter.
	// It is the reference time of the "no deadline-expired full solves"
	// invariant.
	dequeued time.Time
}

// solveWorker is one epoch-solving goroutine. Each worker owns its own TTSA
// instance and a private set of reusable epoch buffers (user and position
// slices, the gain-tensor backing array, one Scenario value whose derived
// tables Finalize recycles), so workers solve concurrently without sharing
// mutable state and the steady-state epoch path stops allocating once the
// scratch has grown to the configured MaxBatch.
type solveWorker struct {
	srv           *Server
	ttsa          *core.TTSA
	ttsaTruncated *core.TTSA
	cheap         *baseline.Cheap
	pf            *portfolio.Portfolio

	users     []scenario.User
	positions []geom.Point
	gainBuf   []float64
	sc        scenario.Scenario
}

func (s *Server) newSolveWorker() *solveWorker {
	return &solveWorker{srv: s, ttsa: s.ttsa, ttsaTruncated: s.ttsaTruncated, cheap: s.cheap, pf: s.pf}
}

// loop drains the solve queue until the collector closes it. A batch queued
// behind a slow solve when the server shuts down is failed, not solved:
// drain-on-Close answers every queued request with a shutdown error so no
// client hangs on a reply that will never come.
func (w *solveWorker) loop() {
	s := w.srv
	defer s.wg.Done()
	for eb := range s.solveQ {
		s.stats.queueDepth.Set(float64(len(s.solveQ)))
		s.stats.inflight.Add(1)
		w.serve(eb)
		s.stats.inflight.Add(-1)
	}
}

// serve takes one dequeued epoch to its answers: an injected solver delay,
// the delta chain hand-off, the expiry filter and the solve.
func (w *solveWorker) serve(eb epochBatch) {
	s := w.srv
	select {
	case <-s.quit:
		s.skipPlan(eb)
		s.failBatch(eb.batch, CodeShutdown, "coordinator shutting down")
		return
	default:
	}
	started := time.Now()
	if !s.chaosDelay(eb.epoch, started) {
		s.skipPlan(eb)
		s.failBatch(eb.batch, CodeShutdown, "coordinator shutting down")
		return
	}
	// Delta serving: epochs of one chain mutate shared cache state, so
	// the worker must own the chain for its stamped epoch number before
	// touching the batch — acquire blocks until every earlier epoch of
	// the chain was solved or skipped, and advance releases it whatever
	// happened in between (an expired-empty epoch included).
	ch := s.deltaChainFor(eb.cell)
	if ch != nil && !ch.acquire(eb.epoch) {
		s.failBatch(eb.batch, CodeShutdown, "coordinator shutting down")
		return
	}
	// Expired requests are answered here, at dequeue, before any solving
	// starts: a worker is never burned on a solve whose answer could not
	// arrive in time, and the "no deadline-expired full solves" invariant
	// is structural rather than raced.
	eb.dequeued = time.Now()
	eb.batch = w.expireBatch(eb)
	if len(eb.batch) == 0 {
		if ch != nil {
			ch.advance()
		}
		s.skipPlan(eb)
	} else {
		w.solveEpochSafe(eb)
		if ch != nil {
			ch.advance()
		}
	}
	s.noteServiceTime(started)
}

// chaosDelay sleeps the injected slow-solver delay for the epoch, if any,
// aborting on shutdown. It reports whether the worker should proceed with
// the epoch.
func (s *Server) chaosDelay(epoch uint64, at time.Time) bool {
	d := s.cfg.SolverChaos.DelayFor(epoch, at)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-s.quit:
		return false
	}
}

// noteServiceTime feeds the admission estimator one epoch's dequeue-to-done
// service time (injected chaos delay included — a delayed worker holds the
// queue exactly like a slow solve) and refreshes the wait-estimate gauge.
func (s *Server) noteServiceTime(started time.Time) {
	s.wait.note(time.Since(started).Seconds())
	s.stats.queueWaitEst.Set(s.wait.estimate(len(s.solveQ) + 1).Seconds())
}

// expireBatch answers every request whose deadline passed while the epoch
// waited in the solve queue (CodeExpired) and returns the still-live
// remainder, filtered in place. An epoch with no live request left is
// counted expired before any of its answers go out.
func (w *solveWorker) expireBatch(eb epochBatch) []pending {
	expired := func(p *pending) bool {
		return !p.deadline.IsZero() && eb.dequeued.After(p.deadline)
	}
	live := 0
	for i := range eb.batch {
		if !expired(&eb.batch[i]) {
			live++
		}
	}
	if live == 0 {
		w.srv.stats.epochExpired()
	}
	kept := eb.batch[:0]
	for i := range eb.batch {
		p := &eb.batch[i]
		if expired(p) {
			w.srv.shed(p, OffloadResponse{
				Version: ProtocolVersion,
				UserID:  p.req.UserID,
				Error:   ErrDeadlineExceeded.Error(),
				Code:    CodeExpired,
			})
			continue
		}
		kept = append(kept, *p)
	}
	return kept
}

// solveEpochSafe confines a panic in the scheduling path to the epoch that
// caused it: the batch is failed with an error response and the worker keeps
// serving subsequent epochs. The selector skip is idempotent, so a panic
// after a successful commit cannot double-count the epoch.
func (w *solveWorker) solveEpochSafe(eb epochBatch) {
	defer func() {
		if r := recover(); r != nil {
			w.srv.stats.panicRecovered()
			w.srv.skipPlan(eb)
			w.srv.failBatch(eb.batch, CodeInternal, fmt.Sprintf("internal error: %v", r))
		}
	}()
	w.solveEpoch(eb)
}

// solveEpoch builds the epoch scenario from the batched requests, solves it
// with TSAJS, and answers every request.
func (w *solveWorker) solveEpoch(eb epochBatch) {
	s := w.srv
	if eb.tier == tierFull {
		// Invariant tripwire: the dequeue filter already dropped every
		// request expired at eb.dequeued, so a full-quality solve can never
		// include one. The counter exists so the chaos harness can assert
		// that independently — it fires only if a future change reorders the
		// serving path.
		for _, p := range eb.batch {
			if !p.deadline.IsZero() && eb.dequeued.After(p.deadline) {
				s.stats.fullSolveExpired()
			}
		}
	}
	if ch := s.deltaChainFor(eb.cell); ch != nil {
		// Delta-epoch serving: incremental scenario assembly and a scoped
		// repair solve against the chain's cached state. The worker already
		// owns the chain (acquired in loop).
		w.solveDeltaEpoch(eb, ch)
		return
	}
	if eb.cell >= 0 {
		// Partitioned epochs sort by user ID before solving so the decision
		// vector is a pure function of the request *set*, not of arrival
		// interleaving — the differential harness compares clusters whose
		// requests race in over many connections.
		sort.SliceStable(eb.batch, func(i, j int) bool {
			return eb.batch[i].req.UserID < eb.batch[j].req.UserID
		})
	}
	sc, err := w.buildScenario(eb)
	if err != nil {
		s.skipPlan(eb)
		s.failBatch(eb.batch, CodeInternal, "epoch scenario: "+err.Error())
		return
	}
	res, outcomes, err := w.schedule(eb, sc)
	if err != nil {
		s.skipPlan(eb)
		s.failBatch(eb.batch, CodeInternal, "scheduling: "+err.Error())
		return
	}
	if err := solver.Verify(sc, res); err != nil {
		s.skipPlan(eb)
		s.failBatch(eb.batch, CodeInternal, "verification: "+err.Error())
		return
	}
	// Commit before answering: the selector's learning prefix must include
	// this epoch before any later epoch's plan can depend on it.
	s.commitPlan(eb, outcomes)
	w.finishEpoch(eb, sc, res)
}

// finishEpoch evaluates the verified epoch result, records the epoch in the
// stats, and answers every request of the batch — the shared tail of the
// classic and delta solve paths.
func (w *solveWorker) finishEpoch(eb epochBatch, sc *scenario.Scenario, res solver.Result) {
	s := w.srv
	rep := objective.New(sc).Evaluate(res.Assignment)
	s.stats.epochScheduled(len(eb.batch), res.Assignment.Offloaded(), res.Elapsed, res.Utility)
	s.stats.epochDegraded(eb.tier)
	s.stats.epochLatency.Observe(time.Since(eb.collected).Seconds())
	var tier string
	if eb.tier != tierFull {
		tier = eb.tier.wire()
	}
	for i := range eb.batch {
		p := &eb.batch[i]
		m := rep.Users[i]
		// A partitioned epoch solves a one-site scenario, so the scheduler's
		// server index is always 0; the wire carries the global cell ID so
		// clients see the same decision a whole-network coordinator returns.
		srv := m.Server
		if eb.cell >= 0 && m.Offloaded {
			srv = eb.cell
		}
		s.reply(p, OffloadResponse{
			Version:         ProtocolVersion,
			UserID:          p.req.UserID,
			Tier:            tier,
			Offload:         m.Offloaded,
			Server:          srv,
			Channel:         m.Channel,
			FUsHz:           m.FUsHz,
			ExpectedDelayS:  m.DelayS,
			ExpectedEnergyJ: m.EnergyJ,
			Utility:         m.Utility,
			Epoch:           eb.epoch,
		})
	}
}

// schedule dispatches the epoch to the scheduler of its stamped quality
// tier. The tier is decided at enqueue by the brownout controller; degraded
// tiers exist only when brownout is enabled, which is also the only way a
// non-full tier can be stamped. A full-tier epoch with a stamped plan runs
// the heterogeneous portfolio and additionally returns the per-slot member
// outcomes for the selector and telemetry; every other path returns nil
// outcomes.
func (w *solveWorker) schedule(eb epochBatch, sc *scenario.Scenario) (solver.Result, []solver.MemberOutcome, error) {
	switch eb.tier {
	case tierTruncated:
		res, err := w.ttsaTruncated.Schedule(sc, eb.solveRNG)
		return res, nil, err
	case tierCheap:
		res, err := w.cheap.Schedule(sc, eb.solveRNG)
		return res, nil, err
	default:
		if eb.plan != nil {
			return w.pf.SolvePlan(sc, eb.solveRNG, nil, eb.plan)
		}
		res, err := w.ttsa.Schedule(sc, eb.solveRNG)
		return res, nil, err
	}
}

// buildScenario assembles a one-epoch scenario from the batch into the
// worker's scratch buffers. Channel gains come from the coordinator's
// calibrated path-loss model — the simulator stand-in for measured CSI —
// drawn from the epoch's pre-derived gain stream.
func (w *solveWorker) buildScenario(eb epochBatch) (*scenario.Scenario, error) {
	s := w.srv
	p := s.cfg.Params
	sites, servers := s.sites, s.servers
	if eb.cell >= 0 {
		// One-cell epoch: the scenario sees only the owning site, so the
		// solve is exactly the whole-network problem restricted to this cell
		// (the objective couples users only through their serving site).
		sites = s.sites[eb.cell : eb.cell+1]
		servers = s.servers[eb.cell : eb.cell+1]
	}
	n := len(eb.batch)
	if cap(w.users) < n {
		w.users = make([]scenario.User, n)
		w.positions = make([]geom.Point, n)
	}
	w.users = w.users[:n]
	w.positions = w.positions[:n]
	for i, pd := range eb.batch {
		w.positions[i] = pd.req.Pos
		w.users[i] = scenario.User{
			Pos:        pd.req.Pos,
			Task:       pd.req.Task,
			FLocalHz:   pd.req.FLocalHz,
			TxPowerW:   pd.req.TxPowerW,
			Kappa:      pd.req.Kappa,
			BetaTime:   pd.req.BetaTime,
			BetaEnergy: pd.req.BetaEnergy,
			Lambda:     pd.req.Lambda,
		}
	}
	gain, err := radio.NewGainTensorInto(w.gainBuf, p.PathLoss, w.positions, sites, p.NumChannels, eb.gainRNG)
	if err != nil {
		return nil, err
	}
	w.gainBuf = gain.Data()
	w.sc.Users = w.users
	w.sc.Servers = servers
	w.sc.Gain = gain
	w.sc.Model = p.PathLoss
	w.sc.NumChannels = p.NumChannels
	w.sc.BandwidthHz = p.BandwidthHz
	w.sc.NoiseW = units.DBmToWatts(p.NoiseDBm)
	w.sc.DownlinkRateBps = p.DownlinkRateBps
	w.sc.Seed = s.cfg.Seed
	if err := w.sc.Finalize(); err != nil {
		return nil, err
	}
	return &w.sc, nil
}

// respEncoder is a pooled response-encoding buffer for the connection write
// path: responses are marshalled into a recycled buffer and written to the
// connection in one call, so the per-request write path does not allocate a
// fresh encoder state per connection turn.
type respEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var respEncoders = sync.Pool{New: func() any {
	e := new(respEncoder)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// writeJSON encodes resp as one newline-terminated JSON line and writes it
// to conn using a pooled buffer, counting the line in the wire metrics.
func (s *Server) writeJSON(conn net.Conn, resp OffloadResponse) error {
	e := respEncoders.Get().(*respEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(resp); err != nil {
		respEncoders.Put(e)
		return err
	}
	// Counted before the write, so the client can never read a line the
	// wire counters do not yet include (DESIGN.md §10).
	s.stats.frameWritten(false, e.buf.Len())
	_, err := conn.Write(e.buf.Bytes())
	respEncoders.Put(e)
	return err
}
