package cran

import (
	"time"

	"github.com/tsajs/tsajs/internal/obs"
)

// Stats is a snapshot of a coordinator's operational counters. It is a
// rendered view over the server's lock-free metrics registry: every field
// is derived from an atomic counter, gauge, or histogram, so producing a
// snapshot never contends with the request hot path.
type Stats struct {
	// Epochs is the number of scheduling rounds run.
	Epochs uint64 `json:"epochs"`
	// Requests counts valid offloading requests admitted toward batching
	// (a request caught by shutdown after admission is also counted in
	// Rejected); Rejected counts malformed/invalid/shutdown-failed
	// requests.
	Requests uint64 `json:"requests"`
	Rejected uint64 `json:"rejected"`
	// Offloaded and Local count the decisions returned.
	Offloaded uint64 `json:"offloaded"`
	Local     uint64 `json:"local"`
	// MaxBatch is the largest epoch batch seen; MeanBatch the average.
	MaxBatch  int     `json:"maxBatch"`
	MeanBatch float64 `json:"meanBatch"`
	// TotalSolveTime aggregates scheduler wall time across epochs.
	TotalSolveTime time.Duration `json:"totalSolveTime"`
	// UtilitySum aggregates achieved epoch utilities.
	UtilitySum float64 `json:"utilitySum"`
	// HealthChecks counts TypeHealth probes answered.
	HealthChecks uint64 `json:"healthChecks"`
	// PanicsRecovered counts panics confined to one connection or epoch.
	PanicsRecovered uint64 `json:"panicsRecovered"`
	// OversizeRequests counts lines rejected for exceeding MaxLineBytes.
	OversizeRequests uint64 `json:"oversizeRequests"`
	// ThrottledConns counts connections refused at the MaxConns cap.
	ThrottledConns uint64 `json:"throttledConns"`
	// EpochsRejected counts epoch batches failed at the solve-queue cap
	// (fail-fast backpressure; every request in such a batch also counts
	// in Rejected).
	EpochsRejected uint64 `json:"epochsRejected"`
	// QueueDepth is the solve queue's depth when last sampled (batches
	// collected but not yet picked up by a solver worker).
	QueueDepth int `json:"queueDepth"`
	// InflightSolves is the number of epochs solver workers hold right now:
	// taken off the solve queue and not yet finished, an injected solver
	// delay included.
	InflightSolves int `json:"inflightSolves"`
	// SolverWorkers is the configured solver worker count.
	SolverWorkers int `json:"solverWorkers"`
	// MeanEpochLatency is the average collect-to-answer epoch latency.
	MeanEpochLatency time.Duration `json:"meanEpochLatency"`
	// EpochsDegradedTruncated and EpochsDegradedCheap count epochs the
	// brownout controller solved below full quality; EpochsExpired counts
	// epochs dropped whole at dequeue because every request's deadline had
	// already passed.
	EpochsDegradedTruncated uint64 `json:"epochsDegradedTruncated"`
	EpochsDegradedCheap     uint64 `json:"epochsDegradedCheap"`
	EpochsExpired           uint64 `json:"epochsExpired"`
	// Shed* break Rejected down by backpressure reason: epoch flushed into
	// a full solve queue, refused at deadline admission, or expired in the
	// queue.
	ShedQueueFull uint64 `json:"shedQueueFull"`
	ShedAdmission uint64 `json:"shedAdmission"`
	ShedExpired   uint64 `json:"shedExpired"`
	// FullSolvesExpired is the serving-path tripwire: full-quality solves
	// that included an already-expired request. The dequeue filter makes
	// this structurally zero; the chaos harness asserts it stays so.
	FullSolvesExpired uint64 `json:"fullSolvesExpired"`
	// QueueWaitEstimate is the admission controller's current estimated
	// queue wait (EWMA epoch service time × queue depth), last sampled.
	QueueWaitEstimate time.Duration `json:"queueWaitEstimate"`
	// BytesRead and BytesWritten count wire traffic across both protocols
	// (request lines and frames in, response lines and frames out,
	// handshakes included).
	BytesRead    uint64 `json:"bytesRead"`
	BytesWritten uint64 `json:"bytesWritten"`
	// FramesJSON and FramesBinary count protocol frames processed in either
	// direction — a JSON "frame" is one newline-delimited envelope, a
	// binary frame one length-prefixed wirev2 frame.
	FramesJSON   uint64 `json:"framesJSON"`
	FramesBinary uint64 `json:"framesBinary"`
	// InflightRequests is the number of admitted requests currently
	// awaiting their epoch's answer (in the collector, the solve queue, or
	// an executing solve), last sampled.
	InflightRequests int `json:"inflightRequests"`
	// WrongShard counts requests rejected because their cell is owned by a
	// different coordinator shard (always zero on unpartitioned coordinators
	// and in correctly-routed clusters; every such request also counts in
	// Rejected).
	WrongShard uint64 `json:"wrongShard"`
	// ShardIndex, ShardCount, and CellsOwned describe this coordinator's
	// place in a sharded cluster; all zero when unpartitioned.
	ShardIndex int `json:"shardIndex"`
	ShardCount int `json:"shardCount"`
	CellsOwned int `json:"cellsOwned"`
	// Delta-epoch serving counters (all zero when Delta is off):
	// DeltaFullEpochs and DeltaRepairEpochs split epochs by how they were
	// solved, DeltaDirtyUsers counts gain rows refreshed, DeltaRowsReused
	// rows served from the cache instead of redrawn.
	DeltaFullEpochs   uint64 `json:"deltaFullEpochs"`
	DeltaRepairEpochs uint64 `json:"deltaRepairEpochs"`
	DeltaDirtyUsers   uint64 `json:"deltaDirtyUsers"`
	DeltaRowsReused   uint64 `json:"deltaRowsReused"`
	// Portfolio member telemetry, keyed by member name (nil when the
	// coordinator runs without a portfolio): chain slots run, epoch wins,
	// and cumulative chain-slot wall milliseconds per member.
	PortfolioMemberSlots map[string]uint64  `json:"portfolioMemberSlots,omitempty"`
	PortfolioMemberWins  map[string]uint64  `json:"portfolioMemberWins,omitempty"`
	PortfolioBudgetMs    map[string]float64 `json:"portfolioBudgetMs,omitempty"`
}

// statsCollector owns the coordinator's metrics, all registered in the
// server's obs.Registry so they surface on /metrics too. Every update is a
// lock-free atomic operation: the former mutex (which serialized every
// connection handler against every snapshot on the request hot path) is
// gone entirely.
type statsCollector struct {
	epochs    *obs.Counter
	requests  *obs.Counter
	rejected  *obs.Counter
	offloaded *obs.Counter
	local     *obs.Counter

	healthChecks *obs.Counter
	panics       *obs.Counter
	oversize     *obs.Counter
	throttled    *obs.Counter

	maxBatch    *obs.Gauge
	activeConns *obs.Gauge
	batch       *obs.Histogram
	solve       *obs.Histogram
	utility     *obs.Histogram

	// Pipeline metrics: the solve queue between the batch collector and
	// the solver workers, and the collect-to-answer epoch latency.
	epochsRejected *obs.Counter
	queueDepth     *obs.Gauge
	inflight       *obs.Gauge
	workers        *obs.Gauge
	epochLatency   *obs.Histogram

	// Overload-resilience metrics: brownout degradations by tier, epoch and
	// request deadline expiry, shed reasons, the admission wait estimate,
	// and the expired-full-solve tripwire.
	degradedTruncated *obs.Counter
	degradedCheap     *obs.Counter
	epochsExpired     *obs.Counter
	shedQueueFull     *obs.Counter
	shedAdmission     *obs.Counter
	shedExpired       *obs.Counter
	fullExpired       *obs.Counter
	queueWaitEst      *obs.Gauge

	// Wire metrics: traffic and frame counts per protocol, and the number
	// of admitted requests whose answer is still in flight.
	bytesRead    *obs.Counter
	bytesWritten *obs.Counter
	framesJSON   *obs.Counter
	framesBinary *obs.Counter
	inflightReqs *obs.Gauge

	// Shard metrics: mis-routed request rejections and this coordinator's
	// position in the cluster (the gauges stay zero when unpartitioned).
	wrongShardC *obs.Counter
	shardIndex  *obs.Gauge
	shardCount  *obs.Gauge
	cellsOwned  *obs.Gauge

	// Delta-epoch serving metrics: epochs by solve mode, refreshed gain
	// rows, and cache-served rows (all zero when Delta is off).
	deltaFull   *obs.Counter
	deltaRepair *obs.Counter
	deltaDirty  *obs.Counter
	deltaReused *obs.Counter
}

func newStatsCollector(reg *obs.Registry) *statsCollector {
	return &statsCollector{
		epochs: reg.Counter("tsajs_coordinator_epochs_total",
			"Scheduling rounds (epochs) run."),
		requests: reg.Counter("tsajs_coordinator_requests_total",
			"Offloading requests that entered epoch batching."),
		rejected: reg.Counter("tsajs_coordinator_rejected_total",
			"Requests rejected: malformed, invalid, or failed during shutdown or scheduling."),
		offloaded: reg.Counter("tsajs_coordinator_offloaded_total",
			"Decisions that sent the task to a MEC server."),
		local: reg.Counter("tsajs_coordinator_local_total",
			"Decisions that kept the task on the device."),
		healthChecks: reg.Counter("tsajs_coordinator_health_checks_total",
			"TypeHealth probes answered."),
		panics: reg.Counter("tsajs_coordinator_panics_recovered_total",
			"Panics confined to one connection or epoch."),
		oversize: reg.Counter("tsajs_coordinator_oversize_requests_total",
			"Request lines rejected for exceeding the wire size limit."),
		throttled: reg.Counter("tsajs_coordinator_throttled_conns_total",
			"Connections refused at the concurrent-connection cap."),
		maxBatch: reg.Gauge("tsajs_coordinator_max_batch",
			"Largest epoch batch scheduled so far."),
		activeConns: reg.Gauge("tsajs_coordinator_active_conns",
			"Currently served connections."),
		batch: reg.Histogram("tsajs_coordinator_batch_size",
			"Requests batched per epoch.", obs.DefaultBatchEdges),
		solve: reg.Histogram("tsajs_coordinator_solve_seconds",
			"Scheduler wall time per epoch.", obs.DefaultLatencyEdges),
		utility: reg.Histogram("tsajs_coordinator_epoch_utility",
			"Achieved system utility per epoch.", obs.DefaultUtilityEdges),
		epochsRejected: reg.Counter("tsajs_coordinator_epochs_rejected_total",
			"Epoch batches failed at the solve-queue cap (fail-fast backpressure)."),
		queueDepth: reg.Gauge("tsajs_coordinator_queue_depth",
			"Epoch batches waiting in the solve queue, last sampled."),
		inflight: reg.Gauge("tsajs_coordinator_inflight_solves",
			"Epochs solver workers hold right now (dequeued, not yet finished)."),
		workers: reg.Gauge("tsajs_coordinator_solver_workers",
			"Configured solver worker count."),
		epochLatency: reg.Histogram("tsajs_coordinator_epoch_latency_seconds",
			"Collect-to-answer latency per epoch (queue wait + solve + evaluation).", obs.DefaultLatencyEdges),
		degradedTruncated: reg.Counter("tsajs_coordinator_epochs_degraded_total",
			"Epochs the brownout controller solved below full quality, by tier.",
			obs.Label{Key: "tier", Value: TierTruncated}),
		degradedCheap: reg.Counter("tsajs_coordinator_epochs_degraded_total",
			"Epochs the brownout controller solved below full quality, by tier.",
			obs.Label{Key: "tier", Value: TierCheap}),
		epochsExpired: reg.Counter("tsajs_coordinator_epochs_expired_total",
			"Epochs dropped whole at dequeue: every request's deadline had passed."),
		shedQueueFull: reg.Counter("tsajs_coordinator_shed_total",
			"Requests shed by backpressure, by reason.",
			obs.Label{Key: "reason", Value: CodeQueueFull}),
		shedAdmission: reg.Counter("tsajs_coordinator_shed_total",
			"Requests shed by backpressure, by reason.",
			obs.Label{Key: "reason", Value: CodeAdmission}),
		shedExpired: reg.Counter("tsajs_coordinator_shed_total",
			"Requests shed by backpressure, by reason.",
			obs.Label{Key: "reason", Value: CodeExpired}),
		fullExpired: reg.Counter("tsajs_coordinator_full_solves_expired_total",
			"Full-quality solves that included an already-expired request (serving-path tripwire; stays zero)."),
		queueWaitEst: reg.Gauge("tsajs_coordinator_queue_wait_estimate_seconds",
			"Estimated queue wait for a newly admitted request (EWMA epoch service time times queue depth)."),
		bytesRead: reg.Counter("tsajs_coordinator_bytes_read_total",
			"Bytes read off the wire across both protocols (request lines, frames, handshakes)."),
		bytesWritten: reg.Counter("tsajs_coordinator_bytes_written_total",
			"Bytes written to the wire across both protocols (response lines and frames)."),
		framesJSON: reg.Counter("tsajs_coordinator_frames_total",
			"Protocol frames processed in either direction, by codec.",
			obs.Label{Key: "codec", Value: "json"}),
		framesBinary: reg.Counter("tsajs_coordinator_frames_total",
			"Protocol frames processed in either direction, by codec.",
			obs.Label{Key: "codec", Value: "binary"}),
		inflightReqs: reg.Gauge("tsajs_coordinator_inflight_requests",
			"Admitted requests currently awaiting their epoch's answer."),
		wrongShardC: reg.Counter("tsajs_coordinator_wrong_shard_total",
			"Requests rejected because their cell is owned by a different shard (mis-routing tripwire; stays zero in a correctly-routed cluster)."),
		shardIndex: reg.Gauge("tsajs_coordinator_shard_index",
			"This coordinator's shard index in the cluster (zero when unpartitioned)."),
		shardCount: reg.Gauge("tsajs_coordinator_shard_count",
			"Coordinator shards in the cluster (zero when unpartitioned)."),
		cellsOwned: reg.Gauge("tsajs_coordinator_cells_owned",
			"Cells this shard owns under the cluster's assignment table (zero when unpartitioned)."),
		deltaFull: reg.Counter("tsajs_coordinator_delta_epochs_total",
			"Delta-mode epochs by solve mode.",
			obs.Label{Key: "mode", Value: "full"}),
		deltaRepair: reg.Counter("tsajs_coordinator_delta_epochs_total",
			"Delta-mode epochs by solve mode.",
			obs.Label{Key: "mode", Value: "repair"}),
		deltaDirty: reg.Counter("tsajs_coordinator_delta_dirty_users_total",
			"Gain rows refreshed by the delta-epoch path (dirty users)."),
		deltaReused: reg.Counter("tsajs_coordinator_delta_rows_reused_total",
			"Gain rows served from the delta cache instead of redrawn."),
	}
}

// deltaEpoch records one delta-mode epoch's classification outcome.
func (c *statsCollector) deltaEpoch(full bool, refreshed, reused int) {
	if full {
		c.deltaFull.Inc()
	} else {
		c.deltaRepair.Inc()
	}
	c.deltaDirty.Add(uint64(refreshed))
	c.deltaReused.Add(uint64(reused))
}

// frameRead counts one inbound protocol frame of n wire bytes.
func (c *statsCollector) frameRead(binaryCodec bool, n int) {
	c.bytesRead.Add(uint64(n))
	if binaryCodec {
		c.framesBinary.Inc()
	} else {
		c.framesJSON.Inc()
	}
}

// frameWritten counts one outbound protocol frame of n wire bytes.
func (c *statsCollector) frameWritten(binaryCodec bool, n int) {
	c.bytesWritten.Add(uint64(n))
	if binaryCodec {
		c.framesBinary.Inc()
	} else {
		c.framesJSON.Inc()
	}
}

func (c *statsCollector) requestEntered()   { c.requests.Inc() }
func (c *statsCollector) requestRejected()  { c.rejected.Inc() }
func (c *statsCollector) epochRejected()    { c.epochsRejected.Inc() }
func (c *statsCollector) epochExpired()     { c.epochsExpired.Inc() }
func (c *statsCollector) fullSolveExpired() { c.fullExpired.Inc() }

// requestShed counts one rejected request, attributing backpressure codes
// to their shed-reason counter (other codes only count in rejected).
func (c *statsCollector) requestShed(code string) {
	c.rejected.Inc()
	switch code {
	case CodeQueueFull:
		c.shedQueueFull.Inc()
	case CodeAdmission:
		c.shedAdmission.Inc()
	case CodeExpired:
		c.shedExpired.Inc()
	}
}

// epochDegraded counts a below-full-quality epoch under its tier.
func (c *statsCollector) epochDegraded(t epochTier) {
	switch t {
	case tierTruncated:
		c.degradedTruncated.Inc()
	case tierCheap:
		c.degradedCheap.Inc()
	}
}

// wrongShard counts one mis-routed request (it also counts in rejected, like
// every other typed rejection answered before batching).
func (c *statsCollector) wrongShard() {
	c.rejected.Inc()
	c.wrongShardC.Inc()
}

func (c *statsCollector) healthServed()    { c.healthChecks.Inc() }
func (c *statsCollector) panicRecovered()  { c.panics.Inc() }
func (c *statsCollector) oversizeRequest() { c.oversize.Inc() }
func (c *statsCollector) connThrottled()   { c.throttled.Inc() }

func (c *statsCollector) epochScheduled(batch, offloaded int, solve time.Duration, utility float64) {
	c.epochs.Inc()
	c.offloaded.Add(uint64(offloaded))
	c.local.Add(uint64(batch - offloaded))
	c.maxBatch.SetMax(float64(batch))
	c.batch.Observe(float64(batch))
	c.solve.Observe(solve.Seconds())
	c.utility.Observe(utility)
}

// snapshot renders the Stats view. Counters are read individually, so a
// snapshot taken mid-epoch is not a single consistent cut — but the read
// order preserves the invariant consumers rely on: decisions (Offloaded,
// Local) are read before Requests, and every scheduled request incremented
// Requests before it could produce a decision, so Offloaded+Local ≤
// Requests holds in every snapshot.
func (c *statsCollector) snapshot() Stats {
	var s Stats
	s.Offloaded = c.offloaded.Value()
	s.Local = c.local.Value()
	s.Epochs = c.epochs.Value()
	s.Rejected = c.rejected.Value()
	s.Requests = c.requests.Value()

	s.MaxBatch = int(c.maxBatch.Value())
	batch := c.batch.Snapshot()
	if n := batch.Count(); n > 0 {
		s.MeanBatch = batch.Sum / float64(n)
	}
	s.TotalSolveTime = time.Duration(c.solve.Snapshot().Sum * float64(time.Second))
	s.UtilitySum = c.utility.Snapshot().Sum

	s.HealthChecks = c.healthChecks.Value()
	s.PanicsRecovered = c.panics.Value()
	s.OversizeRequests = c.oversize.Value()
	s.ThrottledConns = c.throttled.Value()

	s.EpochsRejected = c.epochsRejected.Value()
	s.QueueDepth = int(c.queueDepth.Value())
	s.InflightSolves = int(c.inflight.Value())
	s.SolverWorkers = int(c.workers.Value())
	lat := c.epochLatency.Snapshot()
	if n := lat.Count(); n > 0 {
		s.MeanEpochLatency = time.Duration(lat.Sum / float64(n) * float64(time.Second))
	}

	s.EpochsDegradedTruncated = c.degradedTruncated.Value()
	s.EpochsDegradedCheap = c.degradedCheap.Value()
	s.EpochsExpired = c.epochsExpired.Value()
	s.ShedQueueFull = c.shedQueueFull.Value()
	s.ShedAdmission = c.shedAdmission.Value()
	s.ShedExpired = c.shedExpired.Value()
	s.FullSolvesExpired = c.fullExpired.Value()
	s.QueueWaitEstimate = time.Duration(c.queueWaitEst.Value() * float64(time.Second))

	s.BytesRead = c.bytesRead.Value()
	s.BytesWritten = c.bytesWritten.Value()
	s.FramesJSON = c.framesJSON.Value()
	s.FramesBinary = c.framesBinary.Value()
	s.InflightRequests = int(c.inflightReqs.Value())

	s.WrongShard = c.wrongShardC.Value()
	s.ShardIndex = int(c.shardIndex.Value())
	s.ShardCount = int(c.shardCount.Value())
	s.CellsOwned = int(c.cellsOwned.Value())

	s.DeltaFullEpochs = c.deltaFull.Value()
	s.DeltaRepairEpochs = c.deltaRepair.Value()
	s.DeltaDirtyUsers = c.deltaDirty.Value()
	s.DeltaRowsReused = c.deltaReused.Value()
	return s
}

// Stats returns a snapshot of the coordinator's counters.
func (s *Server) Stats() Stats {
	st := s.stats.snapshot()
	s.fillPortfolioStats(&st)
	return st
}

// fillPortfolioStats renders per-member portfolio telemetry into the
// snapshot by re-reading the same registry handles the solve path writes
// through (obs handles are deduplicated by name+labels, so fetching a
// member's counter here returns the live instrument).
func (s *Server) fillPortfolioStats(st *Stats) {
	if s.pf == nil {
		return
	}
	members := s.pf.Members()
	st.PortfolioMemberSlots = make(map[string]uint64, len(members))
	st.PortfolioMemberWins = make(map[string]uint64, len(members))
	st.PortfolioBudgetMs = make(map[string]float64, len(members))
	for _, m := range members {
		st.PortfolioMemberSlots[m] = s.pfMetrics.Slots(m).Value()
		st.PortfolioMemberWins[m] = s.pfMetrics.Wins(m).Value()
		st.PortfolioBudgetMs[m] = s.pfMetrics.BudgetMs(m).Value()
	}
}

// Metrics returns the coordinator's metrics registry — the live source the
// Stats snapshot is rendered from, servable over HTTP with obs.Mux.
func (s *Server) Metrics() *obs.Registry { return s.metrics }
