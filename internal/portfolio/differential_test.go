package portfolio

import (
	"math"
	"testing"

	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// TestDifferentialParallelVsSequential is the deterministic-equivalence
// contract of the package, run as a differential suite: for every scenario
// seed, a K-chain portfolio must produce the same best assignment and
// utility (within 1e-12; in practice bit-identical) as K sequential TTSA
// solves over the same chain streams — and the parallel runs themselves
// must be bit-identical across -workers=1 and -workers=8, proving the
// reduction is schedule-independent.
func TestDifferentialParallelVsSequential(t *testing.T) {
	const chains = 4
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if testing.Short() {
		seeds = seeds[:3]
	}
	cfg := testConfig()
	ttsa, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range seeds {
		sc := testScenario(t, seed)

		// Sequential reference: K independent solves over the portfolio's
		// chain streams, reduced exactly like the portfolio does — in
		// chain-index order with ties to the lower index.
		eval := objective.New(sc)
		bestIdx, bestJ, evals := -1, 0.0, 0
		refs := make([]solver.Result, chains)
		for i := 0; i < chains; i++ {
			refs[i], err = ttsa.Schedule(sc, ChainStream(simrand.New(seed), i))
			if err != nil {
				t.Fatalf("seed %d chain %d: %v", seed, i, err)
			}
			evals += refs[i].Evaluations
			if u := eval.SystemUtility(refs[i].Assignment); bestIdx == -1 || u > bestJ {
				bestIdx, bestJ = i, u
			}
		}
		want := refs[bestIdx]

		// Parallel runs with different worker counts.
		var parallel []solver.Result
		for _, workers := range []int{1, 8} {
			pf, err := New(cfg, solver.PortfolioOptions{Chains: chains, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			res, err := pf.Schedule(sc, simrand.New(seed))
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if err := solver.Verify(sc, res); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !res.Assignment.Equal(want.Assignment) {
				t.Errorf("seed %d workers %d: assignment differs from sequential reference", seed, workers)
			}
			if diff := math.Abs(res.Utility - bestJ); diff > 1e-12 {
				t.Errorf("seed %d workers %d: utility off by %g (parallel %.17g, sequential %.17g)",
					seed, workers, diff, res.Utility, bestJ)
			}
			if res.Evaluations != evals {
				t.Errorf("seed %d workers %d: evaluations %d, sequential total %d",
					seed, workers, res.Evaluations, evals)
			}
			parallel = append(parallel, res)
		}

		// Schedule-independence must be exact, not approximate: the two
		// worker counts return bit-identical output.
		if parallel[0].Utility != parallel[1].Utility {
			t.Errorf("seed %d: workers=1 utility %.17g != workers=8 utility %.17g",
				seed, parallel[0].Utility, parallel[1].Utility)
		}
		if !parallel[0].Assignment.Equal(parallel[1].Assignment) {
			t.Errorf("seed %d: workers=1 and workers=8 assignments differ", seed)
		}
	}
}

// TestDifferentialIncrementalEvaluator: every chain prices candidates
// incrementally, so the portfolio's utility must equal, bit for bit, both
// a full evaluation of its decision and the utility of the sequential
// solve of the winning chain's stream, for every worker count.
func TestDifferentialIncrementalEvaluator(t *testing.T) {
	cfg := testConfig()
	ttsa, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const chains = 3
	seeds := []uint64{101, 102, 103}
	for _, seed := range seeds {
		sc := testScenario(t, seed)
		eval := objective.New(sc)
		for _, workers := range []int{1, 8} {
			pf, err := New(cfg, solver.PortfolioOptions{Chains: chains, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			res, err := pf.Schedule(sc, simrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if full := eval.SystemUtility(res.Assignment); math.Float64bits(full) != math.Float64bits(res.Utility) {
				t.Errorf("seed %d workers %d: utility %.17g, full evaluation %.17g", seed, workers, res.Utility, full)
			}
			matched := false
			for i := 0; i < chains; i++ {
				ref, err := ttsa.Schedule(sc, ChainStream(simrand.New(seed), i))
				if err != nil {
					t.Fatal(err)
				}
				if ref.Assignment.Equal(res.Assignment) && math.Float64bits(ref.Utility) == math.Float64bits(res.Utility) {
					matched = true
				}
			}
			if !matched {
				t.Errorf("seed %d workers %d: no sequential chain reproduces the portfolio result bit for bit", seed, workers)
			}
		}
	}
}
