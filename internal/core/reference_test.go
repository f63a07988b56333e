package core

import (
	"math"
	"testing"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// refResult is what the reference walk returns.
type refResult struct {
	best        *assign.Assignment
	utility     float64 // SystemUtility of best
	evaluations int
	trace       []TracePoint
}

// referenceWalk is Algorithm 1 with every candidate priced by a full
// Evaluator.SystemUtility, moves drawn through the exported
// Neighborhood.ApplyUndo. It is the oracle the incrementally priced walk
// must match bit for bit: same draws, same acceptances, same result.
func referenceWalk(t testing.TB, cfg Config, sc *scenario.Scenario, rng *simrand.Source, initial *assign.Assignment, targets []int) refResult {
	t.Helper()
	eval := objective.New(sc)
	var cur *assign.Assignment
	if initial != nil {
		cur = initial.Clone()
	} else {
		var err error
		if cur, err = solver.RandomFeasible(sc, rng, cfg.InitOffloadProb); err != nil {
			t.Fatal(err)
		}
	}
	curJ := eval.SystemUtility(cur)
	res := refResult{best: cur.Clone(), utility: curJ, evaluations: 1}
	temp := cfg.InitialTemp
	if temp == 0 {
		temp = float64(sc.N())
	}
	if temp <= cfg.MinTemp {
		temp = cfg.MinTemp * 10
	}
	maxCount := cfg.ThresholdFactor * float64(cfg.InnerIterations)
	moves := NeighborhoodFor(cfg)
	moves.inner.targets = targets
	var undo Undo
	count := 0
	for stage := 0; temp > cfg.MinTemp; stage++ {
		for i := 0; i < cfg.InnerIterations; i++ {
			if cfg.MaxEvaluations > 0 && res.evaluations >= cfg.MaxEvaluations {
				return res
			}
			if !moves.ApplyUndo(cur, rng, &undo) {
				continue
			}
			candJ := eval.SystemUtility(cur)
			res.evaluations++
			delta := candJ - curJ
			switch {
			case delta > 0:
				curJ = candJ
				if curJ > res.utility {
					if err := res.best.CopyFrom(cur); err != nil {
						t.Fatal(err)
					}
					res.utility = curJ
				}
			case math.Exp(delta/temp) > rng.Float64():
				curJ = candJ
				count++
			default:
				if err := undo.Revert(cur); err != nil {
					t.Fatal(err)
				}
			}
		}
		accelerated := !cfg.DisableThreshold && float64(count) >= maxCount
		res.trace = append(res.trace, TracePoint{
			Stage: stage, Temp: temp, Current: curJ, Best: res.utility,
			Evaluations: res.evaluations, Accelerated: accelerated,
		})
		if accelerated {
			temp *= cfg.CoolFast
			count = 0
		} else {
			temp *= cfg.CoolNormal
		}
	}
	return res
}

// ReferenceSchedule exposes the reference walk to the external tests.
func ReferenceSchedule(t testing.TB, cfg Config, sc *scenario.Scenario, rng *simrand.Source) (*assign.Assignment, float64, int) {
	ref := referenceWalk(t, cfg, sc, rng, nil, nil)
	return ref.best, ref.utility, ref.evaluations
}

// sameAsReference fails unless res reproduces ref bit for bit.
func sameAsReference(t *testing.T, what string, res solver.Result, ref refResult) {
	t.Helper()
	switch {
	case !res.Assignment.Equal(ref.best):
		t.Fatalf("%s: assignment differs from the reference walk", what)
	case math.Float64bits(res.Utility) != math.Float64bits(ref.utility):
		t.Fatalf("%s: utility %.17g, reference %.17g", what, res.Utility, ref.utility)
	case res.Evaluations != ref.evaluations:
		t.Fatalf("%s: %d evaluations, reference %d", what, res.Evaluations, ref.evaluations)
	}
}

// TestWalkMatchesReference pins the incrementally priced walk to the
// reference walk over 200 seeds per shape, through every entry point:
// Schedule, ScheduleTrace (stage by stage), ScheduleFrom and ScheduleChain
// with repair Targets. The walks share nothing across goroutines, so under
// the race detector, which slows them about twentyfold, 20 seeds suffice.
func TestWalkMatchesReference(t *testing.T) {
	seeds := uint64(200)
	if raceEnabled {
		seeds = 20
	}
	// Jittered tasks give every user its own √η and weights, so a fold in
	// the wrong order shows up in the low bits.
	shapes := []struct {
		name                   string
		users, servers, chans  int
		maxEvaluations, masked int
		jitter                 float64
	}{
		{name: "U30", users: 30, maxEvaluations: 1000, masked: -1},
		{name: "U80-1500", users: 80, maxEvaluations: 1500, masked: -1},
		{name: "N1", users: 12, chans: 1, maxEvaluations: 1000, masked: -1, jitter: 0.5},
		{name: "masked", users: 12, servers: 4, chans: 2, maxEvaluations: 1000, masked: 2, jitter: 0.5},
		{name: "jitter", users: 40, servers: 4, chans: 6, maxEvaluations: 1000, masked: -1, jitter: 0.5},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			t.Parallel()
			p := scenario.DefaultParams()
			p.NumUsers = shape.users
			if shape.servers > 0 {
				p.NumServers = shape.servers
			}
			if shape.chans > 0 {
				p.NumChannels = shape.chans
			}
			p.Workload.DataJitter, p.Workload.WorkJitter = shape.jitter, shape.jitter
			cfg := DefaultConfig()
			cfg.MaxEvaluations = shape.maxEvaluations
			ts, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= seeds; seed++ {
				p.Seed = seed
				sc, err := scenario.Build(p)
				if err != nil {
					t.Fatal(err)
				}
				ref := referenceWalk(t, cfg, sc, simrand.New(seed), nil, nil)
				res, err := ts.Schedule(sc, simrand.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				sameAsReference(t, "Schedule", res, ref)
				res, trace, err := ts.ScheduleTrace(sc, simrand.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				sameAsReference(t, "ScheduleTrace", res, ref)
				if len(trace) != len(ref.trace) {
					t.Fatalf("seed %d: %d trace points, reference %d", seed, len(trace), len(ref.trace))
				}
				for i := range trace {
					if trace[i] != ref.trace[i] {
						t.Fatalf("seed %d stage %d: trace %+v, reference %+v", seed, i, trace[i], ref.trace[i])
					}
				}

				draw := simrand.New(seed + 1<<32)
				initial, err := solver.RandomFeasible(sc, draw, 0.7)
				if err != nil {
					t.Fatal(err)
				}
				if shape.masked >= 0 {
					if _, err := initial.MaskServer(shape.masked); err != nil {
						t.Fatal(err)
					}
				}
				res, err = ts.ScheduleFrom(sc, simrand.New(seed), initial)
				if err != nil {
					t.Fatal(err)
				}
				sameAsReference(t, "ScheduleFrom", res, referenceWalk(t, cfg, sc, simrand.New(seed), initial, nil))

				targets := draw.Perm(sc.U())[:1+sc.U()/4]
				res, err = ts.ScheduleChain(sc, simrand.New(seed), ChainOptions{Initial: initial, Targets: targets})
				if err != nil {
					t.Fatal(err)
				}
				sameAsReference(t, "ScheduleChain", res, referenceWalk(t, cfg, sc, simrand.New(seed), initial, targets))
			}
		})
	}
}

// TestWalkPricingAllocFree guards the zero-allocation contract of the
// walk's steady-state Preview/Accept with the undo record as the moved
// set.
func TestWalkPricingAllocFree(t *testing.T) {
	p := scenario.DefaultParams()
	p.NumUsers = 40
	p.Seed = 3
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(4)
	cur, err := solver.RandomFeasible(sc, rng, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	inc := objective.New(sc).Track(cur)
	moves := newNeighborhood(DefaultConfig())
	var undo Undo
	step := func() {
		if !moves.applyUndo(cur, rng, &undo) {
			return
		}
		if inc.Preview(cur, undo.Users()...) > inc.Utility() {
			inc.Accept(cur)
		} else if err := undo.Revert(cur); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
		t.Errorf("Preview/Accept allocates %.1f objects per move, want 0", allocs)
	}
}

// FuzzIncrementalExact drives random Algorithm 2 move sequences — with
// and without eviction, optionally restricted to repair targets, with an
// optionally masked server, on identical or jittered tasks — through the
// incremental pricer, accepting
// or rejecting each candidate. After every Preview, Accept and reject the
// pricer must agree bit for bit with a full SystemUtility evaluation by
// the same Evaluator.
func FuzzIncrementalExact(f *testing.F) {
	f.Add(uint64(1), uint8(30), uint8(9), uint8(3), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(1), uint8(0))  // U=1, S=1, N=1
	f.Add(uint64(3), uint8(1), uint8(4), uint8(2), uint8(7))  // U=1
	f.Add(uint64(4), uint8(12), uint8(1), uint8(3), uint8(2)) // S=1
	f.Add(uint64(5), uint8(12), uint8(4), uint8(1), uint8(5)) // N=1
	f.Add(uint64(6), uint8(24), uint8(3), uint8(70), uint8(14))
	f.Add(uint64(7), uint8(40), uint8(5), uint8(2), uint8(3)) // crowded: evictions
	f.Add(uint64(8), uint8(30), uint8(4), uint8(5), uint8(8))
	f.Add(uint64(9), uint8(45), uint8(2), uint8(30), uint8(12))
	f.Fuzz(func(t *testing.T, seed uint64, users, servers, chans, flags uint8) {
		p := scenario.DefaultParams()
		p.NumUsers = 1 + int(users)%48
		p.NumServers = 1 + int(servers)%9
		p.NumChannels = 1 + int(chans)%80
		p.Seed = seed
		if flags&8 != 0 {
			p.Workload.DataJitter, p.Workload.WorkJitter = 0.5, 0.5
		}
		sc, err := scenario.Build(p)
		if err != nil {
			t.Skip(err)
		}
		rng := simrand.New(seed)
		cfg := DefaultConfig()
		cfg.DisableEviction = flags&1 != 0
		moves := newNeighborhood(cfg)
		if flags&2 != 0 {
			moves.targets = rng.Perm(sc.U())[:1+sc.U()/3]
		}
		cur, err := solver.RandomFeasible(sc, rng, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if flags&4 != 0 && sc.S() > 1 {
			if _, err := cur.MaskServer(rng.Intn(sc.S())); err != nil {
				t.Fatal(err)
			}
		}
		eval := objective.New(sc)
		inc := eval.Track(cur)
		exact := func(what string, step int, got float64) {
			t.Helper()
			if want := eval.SystemUtility(cur); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d %s: incremental %.17g, SystemUtility %.17g", step, what, got, want)
			}
		}
		exact("track", 0, inc.Utility())
		var undo Undo
		for step := 1; step <= 300; step++ {
			if !moves.applyUndo(cur, rng, &undo) {
				continue
			}
			exact("preview", step, inc.Preview(cur, undo.Users()...))
			if rng.Float64() < 0.5 {
				inc.Accept(cur)
				exact("accept", step, inc.Utility())
				continue
			}
			if err := undo.Revert(cur); err != nil {
				t.Fatal(err)
			}
			exact("reject", step, inc.Utility())
		}
	})
}
