package objective

import (
	"math"
	"testing"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/scenario"
)

// fuzzScenario is the fixed instance every FuzzAssignmentUtility input is
// evaluated against; the fuzz bytes only steer the assignment.
func fuzzScenario(f *testing.F) *scenario.Scenario {
	f.Helper()
	p := scenario.DefaultParams()
	p.NumUsers = 6
	p.NumServers = 3
	p.NumChannels = 2
	p.Seed = 7
	sc, err := scenario.Build(p)
	if err != nil {
		f.Fatal(err)
	}
	return sc
}

// buildFuzzAssignment interprets data as an operation tape: byte pairs
// (u, op) either send user u local or place it on a (server, channel)
// slot, evicting the occupant when taken — the same move vocabulary the
// TTSA neighbourhood uses. Every tape yields a valid assignment.
func buildFuzzAssignment(t *testing.T, sc *scenario.Scenario, data []byte) *assign.Assignment {
	t.Helper()
	a, err := assign.New(sc.U(), sc.S(), sc.N())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(data); i += 2 {
		u := int(data[i]) % sc.U()
		op := int(data[i+1])
		if op%5 == 0 {
			a.SetLocal(u)
			continue
		}
		s := (op / sc.N()) % sc.S()
		j := op % sc.N()
		if a.Occupant(s, j) == assign.Local {
			if err := a.Offload(u, s, j); err != nil {
				t.Fatalf("offload(%d,%d,%d): %v", u, s, j, err)
			}
		} else if _, err := a.Evict(u, s, j); err != nil {
			t.Fatalf("evict(%d,%d,%d): %v", u, s, j, err)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("operation tape built an invalid assignment: %v", err)
	}
	return a
}

// FuzzAssignmentUtility hardens the objective kernels: any valid
// assignment must evaluate without panicking to a finite system utility,
// finite per-user metrics, and a flat/incremental agreement within
// floating-point summation tolerance. NaN or Inf escaping the evaluator
// would silently corrupt every solver built on top of it.
func FuzzAssignmentUtility(f *testing.F) {
	sc := fuzzScenario(f)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6})
	f.Add([]byte{0, 0, 1, 5, 2, 10, 3, 15})
	f.Add([]byte{5, 1, 5, 1, 5, 2, 5, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		a := buildFuzzAssignment(t, sc, data)
		e := New(sc)

		u := e.SystemUtility(a)
		if math.IsNaN(u) || math.IsInf(u, 0) {
			t.Fatalf("SystemUtility = %v for assignment %v", u, a)
		}
		if gamma := e.CommCost(a); math.IsNaN(gamma) || math.IsInf(gamma, 0) || gamma < 0 {
			t.Fatalf("CommCost = %v for assignment %v", gamma, a)
		}

		rep := e.Evaluate(a)
		if math.IsNaN(rep.SystemUtility) || math.IsInf(rep.SystemUtility, 0) {
			t.Fatalf("report utility = %v", rep.SystemUtility)
		}
		if diff := math.Abs(rep.SystemUtility - u); diff > 1e-9*math.Max(1, math.Abs(u)) {
			t.Fatalf("Evaluate utility %v disagrees with SystemUtility %v", rep.SystemUtility, u)
		}
		for i, m := range rep.Users {
			for name, v := range map[string]float64{
				"sinr": m.SINR, "rate": m.RateBps, "fUs": m.FUsHz,
				"delay": m.DelayS, "energy": m.EnergyJ, "utility": m.Utility,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("user %d %s = %v", i, name, v)
				}
			}
		}

		inc := NewIncremental(sc, a)
		if math.Float64bits(inc.Utility()) != math.Float64bits(u) {
			t.Fatalf("incremental utility %.17g disagrees with flat %.17g", inc.Utility(), u)
		}
	})
}
