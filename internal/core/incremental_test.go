package core_test

import (
	"math"
	"testing"

	"github.com/tsajs/tsajs/internal/baseline"
	"github.com/tsajs/tsajs/internal/core"
	"github.com/tsajs/tsajs/internal/objective"
	"github.com/tsajs/tsajs/internal/simrand"
	"github.com/tsajs/tsajs/internal/solver"
)

// TestIncrementalModeNearIdentical: the default walk prices candidates
// incrementally, so on tiny instances it must return bit for bit what the
// walk priced by full evaluation returns, and both must find the
// exhaustive optimum.
func TestIncrementalModeNearIdentical(t *testing.T) {
	ex := &baseline.Exhaustive{}
	for _, seed := range []uint64{1, 2, 3} {
		sc := tinyScenario(t, seed)
		opt, err := ex.Schedule(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewDefault().Schedule(sc, simrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := solver.Verify(sc, res); err != nil {
			t.Fatal(err)
		}
		best, utility, evaluations := core.ReferenceSchedule(t, core.DefaultConfig(), sc, simrand.New(seed))
		if !res.Assignment.Equal(best) || math.Float64bits(res.Utility) != math.Float64bits(utility) ||
			res.Evaluations != evaluations {
			t.Fatalf("seed %d: walk (%.17g, %d evaluations) differs from the fully priced walk (%.17g, %d)",
				seed, res.Utility, res.Evaluations, utility, evaluations)
		}
		if res.Utility > opt.Utility+1e-9 {
			t.Fatalf("seed %d: TTSA %.9f beats the optimum %.9f — pricing is wrong",
				seed, res.Utility, opt.Utility)
		}
		if opt.Utility > 0 && res.Utility < 0.98*opt.Utility {
			t.Errorf("seed %d: TTSA %.6f below 98%% of optimum %.6f",
				seed, res.Utility, opt.Utility)
		}
	}
}

// TestIncrementalResultUtilityConsistent: the utility the walk tracked
// for its best decision must be exactly the Result's utility, which
// solver.Finish recomputes with a full evaluation — the incremental cache
// cannot drift away from the true objective.
func TestIncrementalResultUtilityConsistent(t *testing.T) {
	sc := tinyScenarioWithUsers(t, 83, 14)
	res, trace, err := core.NewDefault().ScheduleTrace(sc, simrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	last := trace[len(trace)-1]
	if math.Float64bits(last.Best) != math.Float64bits(res.Utility) {
		t.Errorf("tracked best %.17g, recomputed %.17g", last.Best, res.Utility)
	}
	if full := objective.New(sc).SystemUtility(res.Assignment); math.Float64bits(full) != math.Float64bits(res.Utility) {
		t.Errorf("result utility %.17g, full evaluation %.17g", res.Utility, full)
	}
}

// TestIncrementalDeterministic: the incrementally priced walk is
// deterministic in the seed.
func TestIncrementalDeterministic(t *testing.T) {
	sc := tinyScenarioWithUsers(t, 89, 12)
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = 3000
	ts, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ts.Schedule(sc, simrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ts.Schedule(sc, simrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility != b.Utility || !a.Assignment.Equal(b.Assignment) {
		t.Error("walk not deterministic")
	}
}
