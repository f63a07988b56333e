package dynamic

import (
	"fmt"
	"time"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/mobility"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/obs"
	"github.com/tsajs/tsajs/internal/radio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// runDelta is Run's incremental epoch path (Config.Delta non-nil).
//
// The crucial departure from the default path is the RNG stream
// discipline for channel gains: instead of one sequential radio stream
// consumed epoch after epoch, every (epoch, user) pair owns a derived
// stream radioRNG.Derive(epoch).Derive(u). A user's gain block is then a
// pure function of the seed, the epoch, and the user's position — no
// matter which earlier epochs refreshed which rows — which is what makes
// full epochs of a repair run bit-identical to the same epochs of the
// threshold-0 reference run, and dirty classification history-free
// across thresholds (the metamorphic monotonicity property).
func runDelta(cfg Config) (*Result, error) {
	dcfg := cfg.Delta.WithDefaults()

	root := simrand.New(cfg.Seed)
	moveRNG := root.Derive(0x6d6f7665)  // "move"
	taskRNG := root.Derive(0x7461736b)  // "task"
	radioRNG := root.Derive(0x72616469) // "radi"
	solveRNG := root.Derive(0x736f6c76) // "solv"

	em := newEpochMetrics(cfg.Metrics)
	dm := newDeltaMetrics(cfg.Metrics)

	ttsaCfg := core.DefaultConfig()
	if cfg.TTSAConfig != nil {
		ttsaCfg = *cfg.TTSAConfig
	}
	ttsa, err := core.New(ttsaCfg)
	if err != nil {
		return nil, err
	}
	var solverObs *obs.SolverMetrics
	if cfg.Metrics != nil {
		solverObs = obs.NewSolverMetrics(cfg.Metrics)
		ttsa = ttsa.WithObserver(solverObs)
	}

	sites := geom.HexLayout(cfg.Params.NumServers, cfg.Params.InterSiteKm)
	pop, err := mobility.New(mobility.Config{
		Sites:              sites,
		CellCircumradiusKm: geom.HexCircumradius(cfg.Params.InterSiteKm),
		SpeedKmHMin:        cfg.SpeedKmHMin,
		SpeedKmHMax:        cfg.SpeedKmHMax,
	}, cfg.Params.NumUsers, moveRNG)
	if err != nil {
		return nil, err
	}
	pos := func(u int) geom.Point { return pop.Position(u) }

	tracker := delta.NewTracker(dcfg, cfg.Params.NumUsers)
	// rowCache holds each user's most recently drawn gain block (S·N
	// gains); clean users' blocks are copied from it instead of redrawn.
	// prevSlots and prevActive carry the previous solved epoch's decision
	// and participation — the incumbent a repair anneal starts from.
	rowLen := cfg.Params.NumServers * cfg.Params.NumChannels
	rowCache := make([][]float64, cfg.Params.NumUsers)
	prevSlots := make([][2]int, cfg.Params.NumUsers)
	for i := range prevSlots {
		prevSlots[i] = [2]int{assign.Local, assign.Local}
	}
	prevActive := make([]bool, cfg.Params.NumUsers)

	res := &Result{Epochs: make([]EpochMetrics, 0, cfg.Epochs)}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if epoch > 0 {
			if err := pop.Step(cfg.EpochSeconds); err != nil {
				return nil, err
			}
		}

		var down []int
		coordDown := false
		if cfg.FaultPlan != nil {
			down = cfg.FaultPlan.DownServers(epoch)
			coordDown = cfg.FaultPlan.CoordinatorDown(epoch)
		}

		var active []int
		for u := 0; u < cfg.Params.NumUsers; u++ {
			if taskRNG.Float64() < cfg.ActiveProb {
				active = append(active, u)
			}
		}
		if len(active) == 0 {
			tracker.Skip(pos, false)
			for i := range prevActive {
				prevActive[i] = false
			}
			res.Epochs = append(res.Epochs, em.observe(EpochMetrics{
				Epoch:           epoch,
				DownServers:     len(down),
				CoordinatorDown: coordDown,
			}))
			continue
		}

		positions := make([]geom.Point, len(active))
		for i, u := range active {
			positions[i] = pop.Position(u)
		}
		tasks, err := cfg.Params.Workload.Generate(len(active), taskRNG)
		if err != nil {
			return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
		}

		if coordDown {
			// Coordinator outage: every active user runs locally and the
			// incumbent is lost with the coordinator's state, forcing the
			// next solved epoch to a full solve. The gain draws here use
			// this epoch's derived streams without touching the row cache
			// or tracker, keeping later epochs threshold-independent.
			gain := radio.NewTensorBuffer(len(active), cfg.Params.NumServers, cfg.Params.NumChannels)
			epochRadio := radioRNG.Derive(uint64(epoch))
			for i, u := range active {
				rng := epochRadio.Derive(uint64(u))
				if err := gain.RefreshUser(cfg.Params.PathLoss, i, positions[i], sites, rng); err != nil {
					return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
				}
			}
			sc, err := assembleEpochScenario(cfg.Params, sites, positions, tasks, gain)
			if err != nil {
				return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
			}
			allLocal, err := assign.New(sc.U(), sc.S(), sc.N())
			if err != nil {
				return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
			}
			rep := objective.New(sc).Evaluate(allLocal)
			for i := range prevSlots {
				prevSlots[i] = [2]int{assign.Local, assign.Local}
			}
			for i := range prevActive {
				prevActive[i] = false
			}
			tracker.Skip(pos, true)
			res.Epochs = append(res.Epochs, em.observe(EpochMetrics{
				Epoch:           epoch,
				Active:          len(active),
				Utility:         rep.SystemUtility,
				MeanDelayS:      rep.MeanDelayS,
				MeanEnergyJ:     rep.MeanEnergyJ,
				DownServers:     len(down),
				CoordinatorDown: true,
			}))
			continue
		}

		downSet := make(map[int]bool, len(down))
		for _, s := range down {
			downSet[s] = true
		}
		plan := tracker.Plan(epoch, active, pos, func(u int) bool {
			// Forced dirty: the carried slot is unusable. A user idle
			// last epoch carries Local and can only re-offload if the
			// repair targets it; a user parked on a failed server is
			// evacuated by the mask and must be re-placed.
			if !prevActive[u] {
				return true
			}
			return downSet[prevSlots[u][0]]
		})

		// Assemble the gain tensor: redraw the refresh set from this
		// epoch's per-user streams, copy everyone else from the cache.
		gain := radio.NewTensorBuffer(len(active), cfg.Params.NumServers, cfg.Params.NumChannels)
		refresh := make([]bool, len(active))
		if plan.Full {
			for i := range refresh {
				refresh[i] = true
			}
		} else {
			for _, i := range plan.Dirty {
				refresh[i] = true
			}
		}
		epochRadio := radioRNG.Derive(uint64(epoch))
		for i, u := range active {
			if refresh[i] {
				rng := epochRadio.Derive(uint64(u))
				if err := gain.RefreshUser(cfg.Params.PathLoss, i, positions[i], sites, rng); err != nil {
					return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
				}
				if rowCache[u] == nil {
					rowCache[u] = make([]float64, rowLen)
				}
				copy(rowCache[u], gain.UserBlock(i))
			} else {
				copy(gain.UserBlock(i), rowCache[u])
			}
		}
		sc, err := assembleEpochScenario(cfg.Params, sites, positions, tasks, gain)
		if err != nil {
			return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
		}

		epochRNG := solveRNG.Derive(uint64(epoch))
		evalr := objective.New(sc)
		var solveRes solver.Result
		evacuated := 0
		incumbentJ := 0.0
		if plan.Full {
			// Full solve: cold start, exactly the classic path with the
			// failed servers masked. No state from earlier epochs leaks
			// in, so this epoch is a pure function of (seed, epoch,
			// trajectory) — the bit-identical anchor of the differential
			// harness.
			var initial *assign.Assignment
			if len(down) > 0 {
				initial, err = assign.New(sc.U(), sc.S(), sc.N())
				if err != nil {
					return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
				}
				for _, s := range down {
					if s >= sc.S() {
						continue
					}
					evac, err := initial.MaskServer(s)
					if err != nil {
						return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
					}
					evacuated += len(evac)
				}
			}
			if initial != nil {
				solveRes, err = ttsa.ScheduleFrom(sc, epochRNG, initial)
			} else {
				solveRes, err = ttsa.Schedule(sc, epochRNG)
			}
		} else {
			// Repair: previous decision as incumbent, failed servers
			// masked (their occupants are in the dirty set — see the
			// forced closure), and a short cold anneal whose moves target
			// only dirty users. An empty dirty set keeps the incumbent
			// outright.
			incumbent, ierr := carryIncumbent(sc, active, prevSlots)
			if ierr != nil {
				return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, ierr)
			}
			for _, s := range down {
				if s >= sc.S() {
					continue
				}
				evac, err := incumbent.MaskServer(s)
				if err != nil {
					return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
				}
				evacuated += len(evac)
			}
			incumbentJ = evalr.SystemUtility(incumbent)
			if len(plan.Dirty) == 0 {
				started := time.Now()
				solveRes = solver.Finish(ttsa.Name(), evalr, incumbent, 1, started)
			} else {
				repairCfg := ttsaCfg
				repairCfg.InitialTemp = dcfg.RepairTemp
				repairCfg.MaxEvaluations = dcfg.RepairBudget(len(plan.Dirty), ttsaCfg.MaxEvaluations)
				repair, rerr := core.New(repairCfg)
				if rerr != nil {
					return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, rerr)
				}
				if solverObs != nil {
					repair = repair.WithObserver(solverObs)
				}
				solveRes, err = repair.ScheduleRepair(sc, epochRNG, incumbent, plan.Dirty)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
		}
		if err := solver.Verify(sc, solveRes); err != nil {
			return nil, fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
		}

		for i := range prevSlots {
			prevSlots[i] = [2]int{assign.Local, assign.Local}
		}
		for i := range prevActive {
			prevActive[i] = false
		}
		for idx, u := range active {
			s, j := solveRes.Assignment.SlotOf(idx)
			prevSlots[u] = [2]int{s, j}
			prevActive[u] = true
		}

		rep := evalr.Evaluate(solveRes.Assignment)
		res.Epochs = append(res.Epochs, em.observe(dm.observe(EpochMetrics{
			Epoch:          epoch,
			Active:         len(active),
			Offloaded:      solveRes.Assignment.Offloaded(),
			Utility:        solveRes.Utility,
			MeanDelayS:     rep.MeanDelayS,
			MeanEnergyJ:    rep.MeanEnergyJ,
			Evaluations:    solveRes.Evaluations,
			SolveTime:      solveRes.Elapsed,
			DownServers:    len(down),
			Evacuated:      evacuated,
			DeltaFull:      plan.Full,
			DeltaReason:    plan.Reason,
			DeltaDirty:     plan.Rows(len(active)),
			DeltaIncumbent: incumbentJ,
		})))
	}

	res.summarize(cfg.Params.NumServers, true)
	return res, nil
}

// carryIncumbent builds the repair incumbent from the previous epoch's
// slots: every still-active user keeps its slot when the slot survived
// the epoch boundary (network shrink aside), everyone else starts local.
// Unlike warmStart it never degrades to nil — an all-local incumbent is
// a valid repair start.
func carryIncumbent(sc *scenario.Scenario, active []int, prevSlots [][2]int) (*assign.Assignment, error) {
	a, err := assign.New(sc.U(), sc.S(), sc.N())
	if err != nil {
		return nil, err
	}
	for idx, u := range active {
		s, j := prevSlots[u][0], prevSlots[u][1]
		if s == assign.Local || s >= sc.S() || j >= sc.N() {
			continue
		}
		if a.Occupant(s, j) != assign.Local {
			continue
		}
		if err := a.Offload(idx, s, j); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// deltaMetrics streams the delta-path epoch classification into the
// registry: full vs repair epochs by reason, and refreshed row counts.
type deltaMetrics struct {
	full   *obs.Counter
	repair *obs.Counter
	dirty  *obs.Counter
}

func newDeltaMetrics(reg *obs.Registry) *deltaMetrics {
	if reg == nil {
		return nil
	}
	return &deltaMetrics{
		full: reg.Counter("tsajs_replay_delta_full_epochs_total",
			"Delta-path epochs that fell back to a full solve."),
		repair: reg.Counter("tsajs_replay_delta_repair_epochs_total",
			"Delta-path epochs solved by a scoped repair anneal."),
		dirty: reg.Counter("tsajs_replay_delta_dirty_rows_total",
			"Gain-tensor rows refreshed by the delta path."),
	}
}

func (m *deltaMetrics) observe(e EpochMetrics) EpochMetrics {
	if m == nil {
		return e
	}
	if e.DeltaFull {
		m.full.Inc()
	} else {
		m.repair.Inc()
	}
	m.dirty.Add(uint64(e.DeltaDirty))
	return e
}
