package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/delta"
	"github.com/tsajs/tsajs/internal/dynamic"
	"github.com/tsajs/tsajs/internal/geom"
	"github.com/tsajs/tsajs/internal/mobility"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/radio"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
	"github.com/tsajs/tsajs/internal/task"
	"github.com/tsajs/tsajs/internal/units"
)

// The layer probe feeds a workload's own epochs back through the public
// call of each layer, one span per call, so each layer's self time can be
// read off without instrumenting the program. The serving probes rebuild
// each epoch's request set from the decisions the coordinator returned
// (grouped by their Epoch field) and count the epochs whose every slot they
// reproduce; the replay probe re-derives the replay's epochs from its seed
// the way dynamic.Run does and counts the epochs whose utility it
// reproduces bit for bit.

// Span names of the probed layers. "epoch" spans enclose one epoch; their
// self time is the probe's own glue (slice building, bookkeeping) plus the
// steps of the epoch that belong to no probed layer (mobility, arrivals).
const (
	spanEpoch    = "epoch"
	spanDerive   = "simrand.derive"
	spanGain     = "radio.gain"
	spanFinalize = "scenario.finalize"
	spanSchedule = "core.schedule"
	spanVerify   = "solver.verify"
	spanEvaluate = "objective.evaluate"
	spanPlan     = "delta.plan"
)

// probeLayers maps each probed span to the layer name its share metric
// carries.
var probeLayers = []struct{ span, layer string }{
	{spanDerive, "simrand"},
	{spanGain, "radio"},
	{spanFinalize, "scenario"},
	{spanSchedule, "core"},
	{spanVerify, "solver"},
	{spanEvaluate, "objective"},
	{spanPlan, "delta"},
}

// probeMaxEpochs caps the epochs one probe replays, bounding the traced
// run's length whatever the window produced.
const probeMaxEpochs = 300

type prober struct {
	tr      *tracer
	p       scenario.Params
	sites   []geom.Point
	servers []scenario.Server
	gainBuf []float64

	epochs      int
	derives     int
	evaluations int
	matched     int // epochs whose decisions equal the program's
}

func newProber(tr *tracer, p scenario.Params) *prober {
	sites := geom.HexLayout(p.NumServers, p.InterSiteKm)
	servers := make([]scenario.Server, len(sites))
	for i, pos := range sites {
		servers[i] = scenario.Server{Pos: pos, FHz: p.ServerFreqHz}
	}
	return &prober{tr: tr, p: p, sites: sites, servers: servers}
}

// call runs f inside a span named name, a child of parent.
func (pr *prober) call(name string, epoch uint64, parent int, f func() error) error {
	id := pr.tr.begin(name, epoch, parent)
	err := f()
	pr.tr.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// scenarioFor assembles an epoch scenario the way the replay and the
// coordinator do and finalizes it inside a span.
func (pr *prober) scenarioFor(epoch uint64, parent int, positions []geom.Point, tasks []task.Task, gain radio.GainTensor) (*scenario.Scenario, error) {
	p := pr.p
	users := make([]scenario.User, len(positions))
	for i := range users {
		users[i] = scenario.User{
			Pos:        positions[i],
			Task:       tasks[i],
			FLocalHz:   p.UserFreqHz,
			TxPowerW:   units.DBmToWatts(p.TxPowerDBm),
			Kappa:      p.Kappa,
			BetaTime:   p.BetaTime,
			BetaEnergy: 1 - p.BetaTime,
			Lambda:     p.Lambda,
		}
	}
	sc := &scenario.Scenario{
		Users:           users,
		Servers:         pr.servers,
		Gain:            gain,
		Model:           p.PathLoss,
		NumChannels:     p.NumChannels,
		BandwidthHz:     p.BandwidthHz,
		NoiseW:          units.DBmToWatts(p.NoiseDBm),
		DownlinkRateBps: p.DownlinkRateBps,
		Seed:            p.Seed,
	}
	return sc, pr.call(spanFinalize, epoch, parent, sc.Finalize)
}

// finish verifies and evaluates a solved epoch inside spans.
func (pr *prober) finish(epoch uint64, parent int, sc *scenario.Scenario, res solver.Result) error {
	pr.evaluations += res.Evaluations
	if err := pr.call(spanVerify, epoch, parent, func() error { return solver.Verify(sc, res) }); err != nil {
		return err
	}
	return pr.call(spanEvaluate, epoch, parent, func() error {
		objective.New(sc).Evaluate(res.Assignment)
		return nil
	})
}

// servedEpoch is one coordinator epoch as the clients saw it, its
// requests in the order the probe solves them.
type servedEpoch struct {
	epoch uint64
	reqs  []servedRequest
}

// servedRequest is one answered request: the send sequence number, the
// device, and the slot the coordinator granted ({Local, Local} when it
// kept the task local).
type servedRequest struct {
	seq  uint64
	id   string
	pos  geom.Point
	slot [2]int
}

// probeServed replays served epochs through the coordinator's layer calls:
// the epoch's two derived streams, the gain draw, Finalize, the TTSA solve,
// Verify and Evaluate. With dcfg set it mirrors delta serving instead:
// per-user gain streams for refreshed users, cached rows for the rest, and
// a scoped repair anneal from the carried decision. An epoch whose every
// slot equals the one the coordinator granted counts as matched.
func (pr *prober) probeServed(seed uint64, ttsaCfg core.Config, dcfg *delta.Config, epochs []servedEpoch, tk task.Task) error {
	ttsa, err := core.New(ttsaCfg)
	if err != nil {
		return err
	}
	root := simrand.New(seed)
	rowLen := len(pr.sites) * pr.p.NumChannels
	type cached struct {
		lastPos geom.Point
		row     []float64
	}
	cache := map[string]*cached{}
	prev := map[string][2]int{}
	for _, ep := range epochs {
		e := ep.epoch
		n := len(ep.reqs)
		ids := make([]string, n)
		positions := make([]geom.Point, n)
		for i, q := range ep.reqs {
			ids[i], positions[i] = q.id, q.pos
		}
		top := pr.tr.begin(spanEpoch, e, -1)
		pr.epochs++
		pr.derives += 2
		var solveRNG, gainRNG *simrand.Source
		_ = pr.call(spanDerive, e, top, func() error { solveRNG = root.Derive(e); return nil })
		_ = pr.call(spanDerive, e, top, func() error { gainRNG = root.Derive(e ^ 0xc51); return nil })
		tasks := make([]task.Task, n)
		for i := range tasks {
			tasks[i] = tk
		}

		var sc *scenario.Scenario
		var res solver.Result
		if dcfg == nil {
			var gain radio.GainTensor
			if err := pr.call(spanGain, e, top, func() (err error) {
				gain, err = radio.NewGainTensorInto(pr.gainBuf, pr.p.PathLoss, positions, pr.sites, pr.p.NumChannels, gainRNG)
				return err
			}); err != nil {
				return err
			}
			pr.gainBuf = gain.Data()
			if sc, err = pr.scenarioFor(e, top, positions, tasks, gain); err != nil {
				return err
			}
			if err := pr.call(spanSchedule, e, top, func() (err error) {
				res, err = ttsa.Schedule(sc, solveRNG)
				return err
			}); err != nil {
				return err
			}
		} else {
			var dirty []int
			_ = pr.call(spanPlan, e, top, func() error {
				for i, id := range ids {
					c := cache[id]
					_, carried := prev[id]
					if c == nil || !carried || positions[i].Dist(c.lastPos) >= dcfg.MoveThresholdKm {
						dirty = append(dirty, i)
					}
				}
				return nil
			})
			full := (e-1)%uint64(dcfg.FullEvery) == 0 || len(dirty) == n ||
				float64(len(dirty)) > dcfg.MaxDirtyFrac*float64(n)
			refresh := make([]bool, n)
			for i := range refresh {
				refresh[i] = full
			}
			for _, i := range dirty {
				refresh[i] = true
			}
			gain := radio.TensorInto(pr.gainBuf, n, len(pr.sites), pr.p.NumChannels)
			pr.gainBuf = gain.Data()
			for i, id := range ids {
				c := cache[id]
				if c == nil {
					c = &cached{row: make([]float64, rowLen)}
					cache[id] = c
				}
				if refresh[i] {
					pr.derives++
					var rng *simrand.Source
					_ = pr.call(spanDerive, e, top, func() error { rng = gainRNG.Derive(fnv64(id)); return nil })
					if err := pr.call(spanGain, e, top, func() error {
						return gain.RefreshUser(pr.p.PathLoss, i, positions[i], pr.sites, rng)
					}); err != nil {
						return err
					}
					copy(c.row, gain.UserBlock(i))
				} else {
					copy(gain.UserBlock(i), c.row)
				}
				c.lastPos = positions[i]
			}
			if sc, err = pr.scenarioFor(e, top, positions, tasks, gain); err != nil {
				return err
			}
			if err := pr.call(spanSchedule, e, top, func() error {
				if full {
					res, err = ttsa.Schedule(sc, solveRNG)
					return err
				}
				incumbent, err := carry(sc, func(i int) ([2]int, bool) {
					slot, ok := prev[ids[i]]
					return slot, ok
				})
				if err != nil {
					return err
				}
				res, err = repair(ttsa, *dcfg, sc, solveRNG, incumbent, dirty)
				return err
			}); err != nil {
				return err
			}
			prev = make(map[string][2]int, n)
			for i, id := range ids {
				s, j := res.Assignment.SlotOf(i)
				prev[id] = [2]int{s, j}
			}
		}
		if err := pr.finish(e, top, sc, res); err != nil {
			return err
		}
		matched := true
		for i, q := range ep.reqs {
			if slotOf(res.Assignment, i) != q.slot {
				matched = false
			}
		}
		if matched {
			pr.matched++
		}
		pr.tr.end(top)
	}
	return nil
}

// slotOf is user i's (server, channel), {Local, Local} when it runs
// locally.
func slotOf(a *assign.Assignment, i int) [2]int {
	s, j := a.SlotOf(i)
	if s == assign.Local {
		return [2]int{assign.Local, assign.Local}
	}
	return [2]int{s, j}
}

// carry builds the incumbent a repair epoch starts from: user i keeps
// slot(i) when it has one and nobody took the slot first.
func carry(sc *scenario.Scenario, slot func(i int) ([2]int, bool)) (*assign.Assignment, error) {
	a, err := assign.New(sc.U(), sc.S(), sc.N())
	if err != nil {
		return nil, err
	}
	for i := 0; i < sc.U(); i++ {
		s, ok := slot(i)
		if !ok || s[0] == assign.Local || a.Occupant(s[0], s[1]) != assign.Local {
			continue
		}
		if err := a.Offload(i, s[0], s[1]); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// repair is the delta epochs' scoped anneal: a TTSA at the repair
// temperature and a budget sized to the dirty set, moving only dirty users
// from the incumbent. With nothing dirty the incumbent stands.
func repair(ttsa *core.TTSA, dcfg delta.Config, sc *scenario.Scenario, rng *simrand.Source, incumbent *assign.Assignment, dirty []int) (solver.Result, error) {
	if len(dirty) == 0 {
		return solver.Finish(ttsa.Name(), objective.New(sc), incumbent, 1, time.Now()), nil
	}
	cfg := ttsa.Config()
	cfg.InitialTemp = dcfg.RepairTemp
	cfg.MaxEvaluations = dcfg.RepairBudget(len(dirty), cfg.MaxEvaluations)
	t, err := core.New(cfg)
	if err != nil {
		return solver.Result{}, err
	}
	return t.ScheduleRepair(sc, rng, incumbent, dirty)
}

// fnv64 is the coordinator's per-user stream label (FNV-1a of the user ID).
func fnv64(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Stream labels dynamic.Run derives from its root seed.
const (
	labelMove  = 0x6d6f7665
	labelTask  = 0x7461736b
	labelRadio = 0x72616469
	labelSolve = 0x736f6c76
)

// probeReplay re-derives the first epochs of a fault-free replay from its
// seed — mobility, arrivals, gains and solver streams as dynamic.Run draws
// them — and runs each through the layer calls. ref is the replay's own
// result; an epoch whose utility equals ref's bit for bit counts as
// matched.
func (pr *prober) probeReplay(cfg dynamic.Config, ref *dynamic.Result) error {
	p := cfg.Params
	ttsaCfg := core.DefaultConfig()
	if cfg.TTSAConfig != nil {
		ttsaCfg = *cfg.TTSAConfig
	}
	ttsa, err := core.New(ttsaCfg)
	if err != nil {
		return err
	}
	root := simrand.New(cfg.Seed)
	moveRNG := root.Derive(labelMove)
	taskRNG := root.Derive(labelTask)
	radioRNG := root.Derive(labelRadio)
	solveRNG := root.Derive(labelSolve)
	pop, err := mobility.New(mobility.Config{
		Sites:              pr.sites,
		CellCircumradiusKm: geom.HexCircumradius(p.InterSiteKm),
		SpeedKmHMin:        cfg.SpeedKmHMin,
		SpeedKmHMax:        cfg.SpeedKmHMax,
	}, p.NumUsers, moveRNG)
	if err != nil {
		return err
	}
	pos := func(u int) geom.Point { return pop.Position(u) }

	var tracker *delta.Tracker
	var dcfg delta.Config
	rowCache := make([][]float64, p.NumUsers)
	prevSlots := make([][2]int, p.NumUsers)
	prevActive := make([]bool, p.NumUsers)
	if cfg.Delta != nil {
		dcfg = cfg.Delta.WithDefaults()
		tracker = delta.NewTracker(dcfg, p.NumUsers)
	}

	epochs := min(cfg.Epochs, probeMaxEpochs, len(ref.Epochs))
	for epoch := 0; epoch < epochs; epoch++ {
		e := uint64(epoch)
		top := pr.tr.begin(spanEpoch, e, -1)
		if epoch > 0 {
			if err := pop.Step(cfg.EpochSeconds); err != nil {
				return err
			}
		}
		var active []int
		for u := 0; u < p.NumUsers; u++ {
			if taskRNG.Float64() < cfg.ActiveProb {
				active = append(active, u)
			}
		}
		if len(active) == 0 {
			if tracker != nil {
				tracker.Skip(pos, false)
				clear(prevActive)
			}
			pr.tr.end(top)
			continue
		}
		pr.epochs++
		positions := make([]geom.Point, len(active))
		for i, u := range active {
			positions[i] = pop.Position(u)
		}
		tasks, err := p.Workload.Generate(len(active), taskRNG)
		if err != nil {
			return err
		}

		var gain radio.GainTensor
		plan := delta.Plan{Full: true}
		if tracker == nil {
			if err := pr.call(spanGain, e, top, func() (err error) {
				gain, err = radio.NewGainTensorInto(pr.gainBuf, p.PathLoss, positions, pr.sites, p.NumChannels, radioRNG)
				return err
			}); err != nil {
				return err
			}
			pr.gainBuf = gain.Data()
		} else {
			_ = pr.call(spanPlan, e, top, func() error {
				plan = tracker.Plan(epoch, active, pos, func(u int) bool { return !prevActive[u] })
				return nil
			})
			refresh := make([]bool, len(active))
			for i := range refresh {
				refresh[i] = plan.Full
			}
			for _, i := range plan.Dirty {
				refresh[i] = true
			}
			gain = radio.NewTensorBuffer(len(active), p.NumServers, p.NumChannels)
			for i, u := range active {
				if !refresh[i] {
					copy(gain.UserBlock(i), rowCache[u])
					continue
				}
				pr.derives += 2
				var rng *simrand.Source
				_ = pr.call(spanDerive, e, top, func() error {
					rng = radioRNG.Derive(e).Derive(uint64(u))
					return nil
				})
				if err := pr.call(spanGain, e, top, func() error {
					return gain.RefreshUser(p.PathLoss, i, positions[i], pr.sites, rng)
				}); err != nil {
					return err
				}
				if rowCache[u] == nil {
					rowCache[u] = make([]float64, p.NumServers*p.NumChannels)
				}
				copy(rowCache[u], gain.UserBlock(i))
			}
		}
		sc, err := pr.scenarioFor(e, top, positions, tasks, gain)
		if err != nil {
			return err
		}

		pr.derives++
		var epochRNG *simrand.Source
		_ = pr.call(spanDerive, e, top, func() error { epochRNG = solveRNG.Derive(e); return nil })
		var res solver.Result
		if err := pr.call(spanSchedule, e, top, func() (err error) {
			if plan.Full {
				res, err = ttsa.Schedule(sc, epochRNG)
				return err
			}
			incumbent, err := carry(sc, func(i int) ([2]int, bool) {
				return prevSlots[active[i]], true
			})
			if err != nil {
				return err
			}
			res, err = repair(ttsa, dcfg, sc, epochRNG, incumbent, plan.Dirty)
			return err
		}); err != nil {
			return err
		}
		if err := pr.finish(e, top, sc, res); err != nil {
			return err
		}
		if tracker != nil {
			clear(prevActive)
			for i := range prevSlots {
				prevSlots[i] = [2]int{assign.Local, assign.Local}
			}
			for idx, u := range active {
				s, j := res.Assignment.SlotOf(idx)
				prevSlots[u] = [2]int{s, j}
				prevActive[u] = true
			}
		}
		if math.Float64bits(res.Utility) == math.Float64bits(ref.Epochs[epoch].Utility) {
			pr.matched++
		}
		pr.tr.end(top)
	}
	return nil
}

// layerMetrics reports the probe's per-layer self times and counts. Every
// probed layer appears, with zeros for layers the workload never called.
func (pr *prober) layerMetrics() map[string]float64 {
	times := pr.tr.selfTimes()
	perEpoch := func(name string, unit time.Duration) float64 {
		lt := times[name]
		if lt == nil || pr.epochs == 0 {
			return 0
		}
		return float64(lt.self) / float64(unit) / float64(pr.epochs)
	}
	n := float64(max(pr.epochs, 1))
	m := map[string]float64{
		"core.schedule_ms_per_epoch":      perEpoch(spanSchedule, time.Millisecond),
		"simrand.derive_per_epoch":        float64(pr.derives) / n,
		"simrand.derive_us_per_epoch":     perEpoch(spanDerive, time.Microsecond),
		"radio.gain_us_per_epoch":         perEpoch(spanGain, time.Microsecond),
		"scenario.finalize_us_per_epoch":  perEpoch(spanFinalize, time.Microsecond),
		"solver.verify_us_per_epoch":      perEpoch(spanVerify, time.Microsecond),
		"objective.evaluate_us_per_epoch": perEpoch(spanEvaluate, time.Microsecond),
		"delta.plan_us_per_epoch":         perEpoch(spanPlan, time.Microsecond),
		"probe.epochs":                    float64(pr.epochs),
		"probe.match_share":               float64(pr.matched) / n,
	}
	var epochTotal time.Duration
	if lt := times[spanEpoch]; lt != nil {
		epochTotal = lt.total
	}
	share := func(name string) float64 {
		lt := times[name]
		if lt == nil || epochTotal == 0 {
			return 0
		}
		return float64(lt.self) / float64(epochTotal)
	}
	for _, l := range probeLayers {
		m["probe."+l.layer+".share"] = share(l.span)
	}
	m["probe.other.share"] = share(spanEpoch)
	return m
}

// sortedEpochs orders served epochs by epoch number and keeps at most
// probeMaxEpochs of them.
func sortedEpochs(byEpoch map[uint64]*servedEpoch) []servedEpoch {
	out := make([]servedEpoch, 0, len(byEpoch))
	for _, ep := range byEpoch {
		out = append(out, *ep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].epoch < out[j].epoch })
	if len(out) > probeMaxEpochs {
		out = out[:probeMaxEpochs]
	}
	return out
}
