package cran

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/faults"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/portfolio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/units"
)

// ServerConfig parametrizes a coordinator.
type ServerConfig struct {
	// Params describes the managed network (servers, subchannels, radio
	// model) and the defaults applied to requests that omit device
	// capabilities. NumUsers is ignored — the batch defines the users.
	Params scenario.Params
	// BatchWindow is how long the coordinator waits after the first
	// request of an epoch before scheduling it (more requests in one
	// epoch mean better joint decisions).
	BatchWindow time.Duration
	// MaxBatch schedules an epoch immediately once this many requests
	// are pending (0 means S·N, the network's slot capacity).
	MaxBatch int
	// TTSA configures the scheduler; nil means core.DefaultConfig with a
	// bounded evaluation budget suitable for interactive latency.
	TTSA *core.Config
	// Seed drives the coordinator's channel estimator and search.
	Seed uint64
	// ReadTimeout is the per-connection idle read deadline: a connection
	// that sends nothing for this long is closed, so dead or wedged
	// clients cannot pin server resources. Zero defaults to 5 minutes;
	// negative disables the deadline.
	ReadTimeout time.Duration
	// MaxLineBytes caps one request line on the wire. Oversize requests
	// are answered with ErrRequestTooLarge and the connection is closed
	// (the line boundary is lost, so the stream cannot be resynced).
	// Zero defaults to 1 MiB.
	MaxLineBytes int
	// MaxConns caps concurrently served connections; connections beyond
	// the cap are answered with an error response and closed immediately.
	// Zero defaults to 256.
	MaxConns int
	// Workers is the number of solver workers draining the epoch queue.
	// Each worker owns its own TTSA instance and reusable epoch scratch, so
	// K workers solve up to K epochs concurrently while the collector keeps
	// batching. Per-epoch results are bit-identical for every worker count
	// (the epoch number and its RNG streams are stamped at enqueue time).
	// Zero defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds the solve queue between the batch collector and
	// the workers. A batch flushed while the queue is full is failed
	// immediately with ErrQueueFull (fail-fast backpressure; queued work
	// never grows without bound). Zero defaults to max(4, 2·Workers).
	QueueDepth int
	// DefaultDeadline is the epoch deadline applied to requests that omit
	// DeadlineMs: a decision older than this (measured from arrival) is
	// assumed worthless to the device, so the coordinator refuses admission
	// or expires the request at dequeue instead of solving late. Zero means
	// no default — requests without their own deadline never expire (the
	// historical behaviour).
	DefaultDeadline time.Duration
	// Brownout configures graceful degradation under queue pressure: epochs
	// are solved by progressively cheaper schedulers instead of being shed.
	// Disabled by default.
	Brownout BrownoutConfig
	// SolverChaos, when non-nil, injects deterministic per-epoch solver
	// delays into the workers — the slow-solver fault the chaos harness
	// uses to manufacture overload.
	SolverChaos *faults.SolverChaos
	// Listener, when non-nil, serves on the provided listener instead of
	// binding addr — the hook tests use to interpose chaos wrappers.
	Listener net.Listener
	// Metrics, when non-nil, is the registry the server registers its
	// tsajs_coordinator_* metrics in, letting the embedding process serve
	// them alongside its own (the coordinator CLI's -metrics-addr endpoint).
	// Nil creates a private registry, reachable via Server.Metrics.
	Metrics *obs.Registry
	// Partition, when non-nil, runs the coordinator as one shard of a
	// multi-coordinator cluster: it owns the cells the assignment table maps
	// to its index, rejects everything else (CodeWrongShard), and solves each
	// owned cell as its own epoch with RNG streams derived from (Seed, cell,
	// cell epoch) — bit-identical decisions for any cluster size, worker
	// count, or wire codec. See PartitionConfig and internal/shard.
	Partition *PartitionConfig
	// Portfolio, when non-nil, solves every full-quality epoch as a
	// heterogeneous K-chain portfolio (internal/portfolio) instead of a
	// single TTSA chain. With Adaptive set, each epoch's chain budget is
	// reallocated across the member roster by the deterministic UCB
	// selector, fed by the outcomes of epochs at least QueueDepth+Workers+1
	// behind — the structural bound on stamped-but-unfinished epochs — so
	// plans are a pure function of (Seed, epoch, earlier outcomes) and
	// bit-identical for every worker count. Brownout-degraded epochs keep
	// the degradation ladder's truncated/cheap solvers (the selector skips
	// them rather than fighting the ladder). Chains run sequentially on the
	// owning solver worker (Workers here already parallelizes across
	// epochs). Incompatible with Delta (a repair anneal manages its own
	// incumbent) and with SharedIncumbent (nondeterministic serving is not
	// supported).
	Portfolio *solver.PortfolioOptions
	// Delta, when non-nil, enables delta-epoch incremental serving: the
	// coordinator caches each user's gain rows and previous decision,
	// refreshes only users that moved beyond Delta.MoveThresholdKm (or
	// newly appeared), and solves repair epochs with a short anneal scoped
	// to the dirty set — falling back to a full solve on the Delta
	// cadence/drift/dirty-fraction gates. Per-user RNG streams keep full
	// epochs bit-identical to a threshold-0 coordinator's for any worker
	// count or wire codec. Incompatible with Brownout (a degraded tier
	// would replace the carried incumbent with a different scheduler's
	// decision). See internal/delta.
	Delta *delta.Config
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.BatchWindow == 0 {
		c.BatchWindow = 50 * time.Millisecond
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = c.Params.NumServers * c.Params.NumChannels
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.MaxLineBytes == 0 {
		c.MaxLineBytes = 1 << 20
	}
	if c.MaxConns == 0 {
		c.MaxConns = 256
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
		if c.QueueDepth < 4 {
			c.QueueDepth = 4
		}
	}
	return c
}

// Validate checks the configuration.
func (c ServerConfig) Validate() error {
	cc := c.withDefaults()
	if err := cc.Params.Validate(); err != nil {
		return err
	}
	if cc.BatchWindow < 0 {
		return fmt.Errorf("cran: batch window must be non-negative, got %s", cc.BatchWindow)
	}
	if cc.MaxBatch <= 0 {
		return fmt.Errorf("cran: max batch must be positive, got %d", cc.MaxBatch)
	}
	if cc.MaxLineBytes < 1024 {
		return fmt.Errorf("cran: max line length must be at least 1024 bytes, got %d", cc.MaxLineBytes)
	}
	if cc.MaxConns < 0 {
		return fmt.Errorf("cran: max connections must be non-negative, got %d", cc.MaxConns)
	}
	if cc.Workers < 0 {
		return fmt.Errorf("cran: worker count must be non-negative, got %d", cc.Workers)
	}
	if cc.QueueDepth < 0 {
		return fmt.Errorf("cran: queue depth must be non-negative, got %d", cc.QueueDepth)
	}
	if cc.DefaultDeadline < 0 {
		return fmt.Errorf("cran: default deadline must be non-negative, got %s", cc.DefaultDeadline)
	}
	if err := cc.Brownout.Validate(); err != nil {
		return err
	}
	if cc.SolverChaos != nil {
		if err := cc.SolverChaos.Validate(); err != nil {
			return err
		}
	}
	if cc.Partition != nil {
		if err := cc.Partition.Validate(cc.Params.NumServers); err != nil {
			return err
		}
	}
	if cc.Delta != nil {
		if err := cc.Delta.Validate(); err != nil {
			return err
		}
		if cc.Brownout.Enabled {
			return fmt.Errorf("cran: delta-epoch serving cannot be combined with brownout degradation")
		}
	}
	if cc.Portfolio != nil {
		if err := cc.Portfolio.Validate(); err != nil {
			return err
		}
		if cc.Portfolio.SharedIncumbent {
			return fmt.Errorf("cran: the portfolio's shared-incumbent mode is nondeterministic and not supported on the serving path")
		}
		if cc.Delta != nil {
			return fmt.Errorf("cran: portfolio serving cannot be combined with delta-epoch serving")
		}
	}
	if cc.TTSA != nil {
		return cc.TTSA.Validate()
	}
	return nil
}

// pending is one request waiting for its epoch. Exactly one of the two
// delivery paths is set: reply (the JSON connection handler blocks on it,
// preserving the one-request-per-round-trip discipline) or sink+sinkID (the
// binary path enqueues the response frame on the connection's writer, so
// many pendings from one connection ride distinct epochs concurrently).
type pending struct {
	req   OffloadRequest
	reply chan OffloadResponse
	// sink, when non-nil, receives the encoded response frame under sinkID
	// (the client-chosen request ID echoed back in the frame header).
	sink   *binWriter
	sinkID uint64
	// answered guards at-most-once delivery (CAS 0→1 in Server.reply): a
	// recovered panic may leave part of a batch already answered, and
	// failBatch must neither double-send nor deadlock on it. Plain uint32
	// rather than atomic.Bool so pending values stay copyable (batches are
	// built by appending values; the CAS always targets the batch slot).
	answered uint32
	// arrived is when the request was admitted; deadline is when its answer
	// stops being useful (zero: never expires).
	arrived  time.Time
	deadline time.Time
	// cell is the request's serving cell, resolved at admission — only
	// meaningful on partitioned coordinators, where the collector groups
	// pendings by cell into per-cell epochs.
	cell int
}

// Server is a running coordinator. Create with NewServer, stop with Close.
type Server struct {
	cfg     ServerConfig
	ttsa    *core.TTSA
	ln      net.Listener
	sites   []geom.Point
	servers []scenario.Server
	rng     *simrand.Source
	epoch   uint64
	submit  chan pending
	solveQ  chan epochBatch
	started time.Time

	// Partition-mode state (nil/empty on unpartitioned coordinators): the
	// per-cell epoch counters (owned by the batch collector) and the per-cell
	// base RNG sources the cell-epoch streams derive from. The bases are pure
	// functions of (Seed, cell), so every shard of a same-seed cluster — and
	// a lone K=1 coordinator — derives identical streams for a given cell.
	cellEpochs []uint64
	cellRNG    []*simrand.Source

	// Delta-epoch serving state (nil/zero when Delta is off): one chain
	// per cell on partitioned coordinators, one network-wide chain
	// otherwise; the defaulted delta config; the base solver config repair
	// solvers derive their budget and temperature from; and the shared
	// solver observer repair solvers report into.
	deltaChains []*deltaChain
	deltaCfg    delta.Config
	deltaTTSA   core.Config
	solverObs   *obs.SolverMetrics

	// Overload-resilience state: degraded-tier solvers, the deterministic
	// brownout controller (owned by the batch collector), and the EWMA
	// service-time estimator behind deadline admission.
	ttsaTruncated *core.TTSA
	cheap         *baseline.Cheap
	brownout      *brownoutController
	wait          waitEstimator

	// Portfolio serving state (nil when Portfolio is off): the shared
	// heterogeneous portfolio full-tier epochs dispatch to, its per-member
	// telemetry, and — in adaptive mode — one selector per cell on
	// partitioned coordinators (one network-wide selector otherwise).
	pf        *portfolio.Portfolio
	pfMetrics *obs.PortfolioMetrics
	selectors []*portfolio.Selector

	quit    chan struct{}
	wg      sync.WaitGroup
	metrics *obs.Registry
	stats   *statsCollector

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// NewServer starts a coordinator listening on addr (e.g. "127.0.0.1:0").
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ttsaCfg := core.DefaultConfig()
	ttsaCfg.MaxEvaluations = 20000
	if cfg.TTSA != nil {
		ttsaCfg = *cfg.TTSA
	}
	ttsa, err := core.New(ttsaCfg)
	if err != nil {
		return nil, err
	}
	ln := cfg.Listener
	if ln == nil {
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("cran: listen: %w", err)
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// The epoch scheduler reports per-solve telemetry (stage counts,
	// acceptance balance, threshold activations) into the same registry.
	// Observation is passive and per-epoch, so scheduling results and
	// latency are unchanged.
	solverObs := obs.NewSolverMetrics(reg)
	ttsa = ttsa.WithObserver(solverObs)
	// Degraded-tier solvers exist only when brownout is on, so a disabled
	// coordinator carries zero extra state on the serving path.
	bo := cfg.Brownout.withDefaults(ttsaCfg.MaxEvaluations)
	var ttsaTruncated *core.TTSA
	var cheap *baseline.Cheap
	if bo.Enabled {
		truncCfg := ttsaCfg
		truncCfg.MaxEvaluations = bo.TruncatedBudget
		ttsaTruncated, err = core.New(truncCfg)
		if err != nil {
			return nil, err
		}
		ttsaTruncated = ttsaTruncated.WithObserver(solverObs)
		cheap = &baseline.Cheap{HJTORAMaxUsers: bo.HJTORAMaxUsers}
	}
	s := &Server{
		cfg:           cfg,
		ttsa:          ttsa,
		ttsaTruncated: ttsaTruncated,
		cheap:         cheap,
		ln:            ln,
		sites:         geom.HexLayout(cfg.Params.NumServers, cfg.Params.InterSiteKm),
		rng:           simrand.New(cfg.Seed),
		submit:        make(chan pending),
		solveQ:        make(chan epochBatch, cfg.QueueDepth),
		quit:          make(chan struct{}),
		metrics:       reg,
		stats:         newStatsCollector(reg),
		conns:         make(map[net.Conn]struct{}),
		started:       time.Now(),
	}
	// The MEC server descriptors are static for the server's lifetime:
	// build the slice once here instead of once per epoch, and let every
	// solver worker's epoch scenario share it read-only.
	s.servers = make([]scenario.Server, len(s.sites))
	for i, pos := range s.sites {
		s.servers[i] = scenario.Server{Pos: pos, FHz: cfg.Params.ServerFreqHz}
	}
	s.brownout = newBrownoutController(bo, cfg.QueueDepth)
	s.solverObs = solverObs
	if po := cfg.Portfolio; po != nil {
		// Chains run sequentially on the owning solver worker: the server's
		// Workers already parallelize across epochs, so parallel chains per
		// epoch would only oversubscribe the CPU.
		pfOpts := *po
		pfOpts.Workers = 1
		pf, err := portfolio.Wrap(ttsa, pfOpts)
		if err != nil {
			return nil, err
		}
		s.pfMetrics = obs.NewPortfolioMetrics(reg)
		s.pf = pf.WithObserver(solverObs).WithMemberObserver(s.pfMetrics)
		if pfOpts.Adaptive {
			// The pipeline-depth lag: at stamp time of epoch e at most
			// QueueDepth epochs sit in the solve queue and Workers more are
			// held by workers, so epochs e-lag and earlier have always been
			// committed or skipped — Plan never blocks in steady state.
			lag := cfg.QueueDepth + cfg.Workers + 1
			if cfg.Partition != nil {
				s.selectors = make([]*portfolio.Selector, len(s.sites))
				for c := range s.selectors {
					s.selectors[c] = portfolio.NewSelector(s.pf.Members(), pfOpts.Chains, lag)
				}
			} else {
				s.selectors = []*portfolio.Selector{
					portfolio.NewSelector(s.pf.Members(), pfOpts.Chains, lag),
				}
			}
		}
	}
	if cfg.Delta != nil {
		s.deltaCfg = *cfg.Delta
		s.deltaCfg = s.deltaCfg.WithDefaults()
		s.deltaTTSA = ttsaCfg
		if cfg.Partition != nil {
			// Partitioned epochs see a one-site scenario, so each cell's
			// chain caches single-site rows.
			s.deltaChains = make([]*deltaChain, len(s.sites))
			for c := range s.deltaChains {
				s.deltaChains[c] = newDeltaChain(cfg.Params.NumChannels)
			}
		} else {
			s.deltaChains = []*deltaChain{
				newDeltaChain(cfg.Params.NumServers * cfg.Params.NumChannels),
			}
		}
	}
	if pc := cfg.Partition; pc != nil {
		s.cellEpochs = make([]uint64, len(s.sites))
		s.cellRNG = make([]*simrand.Source, len(s.sites))
		for c := range s.cellRNG {
			s.cellRNG[c] = s.rng.Derive(cellStreamLabel + uint64(c))
		}
		s.stats.shardIndex.Set(float64(pc.Index))
		s.stats.shardCount.Set(float64(pc.Shards))
		s.stats.cellsOwned.Set(float64(len(pc.OwnedCells())))
	}
	s.stats.workers.Set(float64(cfg.Workers))
	s.wg.Add(2 + cfg.Workers)
	go s.acceptLoop()
	go s.batchLoop()
	for i := 0; i < cfg.Workers; i++ {
		go s.newSolveWorker().loop()
	}
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting connections, fails pending requests, and waits for
// all server goroutines to exit. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	close(s.quit)
	// Wake any worker parked in a delta chain's acquire — the collector is
	// about to close the solve queue and those epochs will never be solved.
	s.closeDeltaChains()
	// Unblock a collector parked in a selector's Plan wait; a nil plan
	// falls back to the single-chain solver for the final epochs.
	for _, sel := range s.selectors {
		sel.Close()
	}
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := 5 * time.Millisecond
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() {
				return
			}
			// Transient accept error (EMFILE, chaos wrapper, ...): back
			// off so a persistent failure cannot spin the loop hot.
			select {
			case <-time.After(backoff):
			case <-s.quit:
				return
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 5 * time.Millisecond
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		if len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.stats.connThrottled()
			// Tell the client why before hanging up, so it can degrade
			// rather than diagnose a silent close.
			_ = s.writeJSON(conn, OffloadResponse{
				Version: ProtocolVersion,
				Error:   "coordinator at connection capacity",
			})
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		active := len(s.conns)
		s.mu.Unlock()
		s.stats.activeConns.Set(float64(active))
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn negotiates the connection's protocol on its first bytes and
// dispatches to the matching reader: the wirev2 handshake prefix selects
// the binary framed protocol, anything else the historical newline-
// delimited JSON loop (a JSON line can never start with the handshake's
// NUL byte). A panic while serving one connection is confined to that
// connection: it is recovered, counted, and the connection closed.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.stats.panicRecovered()
		}
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		active := len(s.conns)
		s.mu.Unlock()
		s.stats.activeConns.Set(float64(active))
	}()
	if s.cfg.ReadTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	}
	br := bufio.NewReaderSize(conn, 64*1024)
	prefix, err := br.Peek(len(wireMagic))
	if err == nil && bytes.Equal(prefix, wireMagic[:]) {
		s.serveBinary(conn, br)
		return
	}
	// Not a binary handshake (or the connection died before three bytes
	// arrived): hand whatever is buffered to the JSON line reader.
	s.serveJSON(conn, br)
}

// serveJSON reads newline-delimited requests and writes one response per
// request, in order — the historical protocol.
func (s *Server) serveJSON(conn net.Conn, br *bufio.Reader) {
	scanner := bufio.NewScanner(br)
	initial := 64 * 1024
	if initial > s.cfg.MaxLineBytes {
		initial = s.cfg.MaxLineBytes
	}
	scanner.Buffer(make([]byte, initial), s.cfg.MaxLineBytes)
	for {
		if s.cfg.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		if !scanner.Scan() {
			if errors.Is(scanner.Err(), bufio.ErrTooLong) {
				// The scanner lost the line boundary, so answer with the
				// typed limit error and drop the connection.
				s.stats.oversizeRequest()
				_ = s.writeJSON(conn, OffloadResponse{Version: ProtocolVersion, Error: ErrRequestTooLarge.Error(), Code: CodeTooLarge})
			}
			return
		}
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		s.stats.frameRead(false, len(line)+1)
		resp := s.handle(line)
		if err := s.writeJSON(conn, resp); err != nil {
			return
		}
		if s.isClosed() {
			return
		}
	}
}

// handle parses, validates and schedules one request line.
func (s *Server) handle(line []byte) OffloadResponse {
	var req OffloadRequest
	if err := json.Unmarshal(line, &req); err != nil {
		s.stats.requestRejected()
		return OffloadResponse{Version: ProtocolVersion, Error: "malformed request: " + err.Error()}
	}
	s.applyDefaults(&req)
	if err := req.Validate(); err != nil {
		s.stats.requestRejected()
		return OffloadResponse{Version: ProtocolVersion, UserID: req.UserID, Error: err.Error(), Code: rejectionCode(err)}
	}
	if req.Type == TypeHealth {
		return s.handleHealth(req)
	}
	p := pending{req: req, reply: make(chan OffloadResponse, 1), arrived: time.Now()}
	if resp, ok := s.admit(&p); !ok {
		return resp
	}
	select {
	case resp := <-p.reply:
		return resp
	case <-s.quit:
		return OffloadResponse{Version: ProtocolVersion, UserID: req.UserID, Error: "coordinator shutting down", Code: CodeShutdown}
	}
}

// rejectionCode classifies a validation error into a typed wire code;
// empty for rejections that predate the typed codes.
func rejectionCode(err error) string {
	if errors.Is(err, ErrUnsupportedVersion) {
		return CodeUnsupportedVersion
	}
	return ""
}

// admit applies deadline admission control to p and hands it to the batch
// collector. When the request cannot enter batching, the immediate answer
// is returned with ok=false; otherwise the collector owns a copy of p and
// exactly one response will later arrive through p's reply channel or sink.
func (s *Server) admit(p *pending) (resp OffloadResponse, ok bool) {
	if s.cfg.Partition != nil {
		// Ownership is checked here, at the choke point shared by both wire
		// codecs: a request for a cell another shard owns is answered typed
		// (CodeWrongShard) before it can enter batching.
		cell, resp, ok := s.partitionCell(p.req)
		if !ok {
			return resp, false
		}
		p.cell = cell
	}
	if budget := s.deadlineBudget(p.req); budget > 0 {
		p.deadline = p.arrived.Add(budget)
		// Admission control: when the estimated queue wait (EWMA epoch
		// service time × epochs ahead) already exceeds the request's whole
		// budget, answering now — while the device can still fall back to
		// local execution — beats solving late. The estimate is advisory
		// and lock-free; a request it admits can still expire at dequeue.
		if est := s.wait.estimate(len(s.solveQ) + 1); est > budget {
			s.stats.requestShed(CodeAdmission)
			return OffloadResponse{
				Version: ProtocolVersion,
				UserID:  p.req.UserID,
				Error: fmt.Sprintf("%s: estimated wait %s exceeds deadline %s",
					ErrAdmissionRejected.Error(), est.Round(time.Millisecond), budget),
				Code: CodeAdmission,
			}, false
		}
	}
	// Count the request before handing it to the batcher: once the send
	// succeeds the epoch goroutine may schedule it (incrementing the
	// decision counters) at any moment, and the Offloaded+Local ≤ Requests
	// snapshot invariant needs Requests to be visible first.
	s.stats.requestEntered()
	select {
	case s.submit <- *p:
		return OffloadResponse{}, true
	case <-s.quit:
		s.stats.requestRejected()
		return OffloadResponse{Version: ProtocolVersion, UserID: p.req.UserID, Error: "coordinator shutting down", Code: CodeShutdown}, false
	}
}

// deadlineBudget resolves a request's deadline budget: its own DeadlineMs
// when set, the coordinator's DefaultDeadline otherwise; zero means the
// request never expires.
func (s *Server) deadlineBudget(req OffloadRequest) time.Duration {
	if req.DeadlineMs > 0 {
		return time.Duration(req.DeadlineMs * float64(time.Millisecond))
	}
	return s.cfg.DefaultDeadline
}

// handleHealth answers a TypeHealth probe with uptime and a counter
// snapshot. A shutting-down coordinator reports an error instead, so probes
// cannot mistake a dying server for a healthy one.
func (s *Server) handleHealth(req OffloadRequest) OffloadResponse {
	select {
	case <-s.quit:
		return OffloadResponse{Version: ProtocolVersion, UserID: req.UserID, Error: "coordinator shutting down", Code: CodeShutdown}
	default:
	}
	s.mu.Lock()
	active := len(s.conns)
	s.mu.Unlock()
	s.stats.healthServed()
	return OffloadResponse{
		Version: ProtocolVersion,
		UserID:  req.UserID,
		Health: &Health{
			UptimeS:     time.Since(s.started).Seconds(),
			ActiveConns: active,
			Stats:       s.Stats(),
		},
	}
}

func (s *Server) applyDefaults(req *OffloadRequest) {
	p := s.cfg.Params
	if req.FLocalHz == 0 {
		req.FLocalHz = p.UserFreqHz
	}
	if req.TxPowerW == 0 {
		req.TxPowerW = units.DBmToWatts(p.TxPowerDBm)
	}
	if req.Kappa == 0 {
		req.Kappa = p.Kappa
	}
	if req.BetaTime == 0 && req.BetaEnergy == 0 {
		req.BetaTime = p.BetaTime
		req.BetaEnergy = 1 - p.BetaTime
	}
	if req.Lambda == 0 {
		req.Lambda = p.Lambda
	}
}

// batchLoop is the pipeline's pure collector: it groups submissions into
// epochs and hands each epoch to the bounded solve queue instead of solving
// inline, so collecting the next batch overlaps the solve of the previous
// one. The epoch number and both per-epoch RNG streams are stamped here, at
// enqueue time — simrand.Derive reads only the parent seed, so the streams
// are bit-identical to the pre-pipeline coordinator's and independent of
// which worker eventually solves the batch.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	var (
		batch []pending
		timer *time.Timer
		fire  <-chan time.Time
	)
	flush := func() {
		if len(batch) > 0 {
			if s.cfg.Partition != nil {
				s.enqueueCellEpochs(batch)
			} else {
				s.enqueueEpoch(batch)
			}
			batch = nil
		}
		if timer != nil {
			timer.Stop()
			timer = nil
		}
		fire = nil
	}
	for {
		select {
		case p := <-s.submit:
			// The collector is the single choke point every admitted request
			// passes through, whichever protocol carried it: count it in
			// flight here, and let the at-most-once reply path decrement.
			s.stats.inflightReqs.Add(1)
			batch = append(batch, p)
			if len(batch) >= s.cfg.MaxBatch {
				flush()
				continue
			}
			if timer == nil {
				timer = time.NewTimer(s.cfg.BatchWindow)
				fire = timer.C
			}
		case <-fire:
			timer = nil
			fire = nil
			flush()
		case <-s.quit:
			// Fail whatever is still collecting, then close the solve
			// queue: the workers drain it, failing every queued batch.
			s.failBatch(batch, CodeShutdown, "coordinator shutting down")
			close(s.solveQ)
			return
		}
	}
}

// enqueueEpoch stamps the next epoch number and its RNG streams on the
// batch and offers it to the solve queue. A full queue fails the batch
// immediately (ErrQueueFull): the coordinator sheds load at the epoch
// boundary rather than queueing unboundedly or stalling collection.
func (s *Server) enqueueEpoch(batch []pending) {
	s.epoch++
	// The brownout tier is stamped here, in the collector goroutine, as a
	// pure function of the queue-depth sequence seen at successive flushes:
	// the same arrival trace always degrades the same epochs, regardless of
	// worker count or solve timing.
	eb := epochBatch{
		epoch:     s.epoch,
		cell:      -1,
		batch:     batch,
		tier:      s.brownout.observe(len(s.solveQ)),
		solveRNG:  s.rng.Derive(s.epoch),
		gainRNG:   s.rng.Derive(s.epoch ^ gainStreamLabel),
		collected: time.Now(),
	}
	eb.plan = s.planEpoch(eb.cell, eb.epoch, eb.tier, eb.solveRNG)
	select {
	case s.solveQ <- eb:
		s.stats.queueDepth.Set(float64(len(s.solveQ)))
	default:
		s.stats.epochRejected()
		// A rejected epoch never reaches a worker: tell the delta chain so
		// workers sequenced behind it do not wait forever, and record the
		// skip with the selector so the learning prefix stays contiguous.
		s.deltaSkip(eb.epoch, eb.cell)
		s.skipPlan(eb)
		s.failBatch(batch, CodeQueueFull, ErrQueueFull.Error())
	}
}

// selectorFor returns the adaptive selector owning cell's epochs (the
// network-wide selector on unpartitioned coordinators); nil when the
// adaptive portfolio is off.
func (s *Server) selectorFor(cell int) *portfolio.Selector {
	if len(s.selectors) == 0 {
		return nil
	}
	if cell < 0 {
		return s.selectors[0]
	}
	return s.selectors[cell]
}

// planEpoch stamps an epoch's portfolio plan in the collector goroutine,
// next to the tier and RNG stamps. Full-tier epochs get the selector's
// allocation (or the fixed round-robin plan when the selector is off);
// brownout-degraded epochs return nil — they keep the degradation ladder's
// truncated/cheap solvers, and the selector records them as skipped so its
// learning prefix stays contiguous without fighting the ladder. A nil plan
// (portfolio off, degraded tier, or selector closed by shutdown) dispatches
// the epoch exactly as before the portfolio existed.
func (s *Server) planEpoch(cell int, epoch uint64, tier epochTier, solveRNG *simrand.Source) []int {
	if s.pf == nil {
		return nil
	}
	sel := s.selectorFor(cell)
	if tier != tierFull {
		if sel != nil {
			sel.Skip(epoch)
		}
		return nil
	}
	if sel == nil {
		return s.pf.FixedPlan()
	}
	return sel.Plan(epoch, solveRNG)
}

// skipPlan tells the epoch's selector that a planned epoch died without
// outcomes (shed, expired, failed, or aborted by shutdown). No-op for
// unplanned epochs and in fixed mode; duplicate skips are ignored by the
// selector, so racing a recovered panic against shutdown is safe.
func (s *Server) skipPlan(eb epochBatch) {
	if eb.plan == nil {
		return
	}
	if sel := s.selectorFor(eb.cell); sel != nil {
		sel.Skip(eb.epoch)
	}
}

// commitPlan delivers a planned epoch's member outcomes to its selector.
func (s *Server) commitPlan(eb epochBatch, outcomes []solver.MemberOutcome) {
	if eb.plan == nil || outcomes == nil {
		return
	}
	if sel := s.selectorFor(eb.cell); sel != nil {
		sel.Commit(eb.epoch, outcomes)
	}
}

// failBatch answers every request in the batch with the same typed error.
func (s *Server) failBatch(batch []pending, code, msg string) {
	for i := range batch {
		p := &batch[i]
		s.shed(p, OffloadResponse{Version: ProtocolVersion, UserID: p.req.UserID, Error: msg, Code: code})
	}
}

// shed answers p with a typed rejection at most once, counting it before
// the answer can reach the client.
func (s *Server) shed(p *pending, resp OffloadResponse) {
	if s.claim(p) {
		s.stats.requestShed(resp.Code)
		s.deliver(p, resp)
	}
}

// reply delivers a response at most once and never blocks: the answered CAS
// targets the batch slot itself, so if a recovered panic left part of a
// batch already answered, failBatch neither double-sends nor double-counts.
func (s *Server) reply(p *pending, resp OffloadResponse) {
	if s.claim(p) {
		s.deliver(p, resp)
	}
}

// claim takes the right to answer p, at most once per request. Every
// counter the answer settles is updated between claim and deliver, so a
// client that has read its reply sees them (DESIGN.md §10).
func (s *Server) claim(p *pending) bool {
	if !atomic.CompareAndSwapUint32(&p.answered, 0, 1) {
		return false
	}
	s.stats.inflightReqs.Add(-1)
	return true
}

// deliver hands a claimed answer to its connection without blocking.
func (s *Server) deliver(p *pending, resp OffloadResponse) {
	if p.sink != nil {
		p.sink.send(p.sinkID, &resp)
		return
	}
	select {
	case p.reply <- resp:
	default:
	}
}
