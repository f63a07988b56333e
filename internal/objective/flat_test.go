package objective

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/scenario"
	"github.com/tsajs/tsajs/internal/simrand"
)

// referenceUtility is the pre-flattening formulation of J*(X): nested
// tensor indexing through Gain.At, per-term p_u·G multiplication, and
// Derived struct reads. The flat-table kernels must reproduce it to
// floating-point summation-order accuracy. The log2(1+γ) denominator is
// written as Log1p(γ)/ln2 — algebraically identical to the historical
// math.Log2(1+γ), but exact for tiny γ where 1+γ rounds (the naive form
// carries a relative error ~eps/γ, which exceeds 1e-9 once γ < 1e-7;
// TestLog1pMatchesNaiveLog2 pins the agreement regime).
func referenceUtility(sc *scenario.Scenario, a *assign.Assignment) float64 {
	gain, comm := 0.0, 0.0
	for j := 0; j < sc.N(); j++ {
		var group []slot
		for u := 0; u < sc.U(); u++ {
			if s, jj := a.SlotOf(u); s != assign.Local && jj == j {
				group = append(group, slot{u: u, s: s})
			}
		}
		for _, g := range group {
			d := sc.Derived(g.u)
			interference := 0.0
			for _, o := range group {
				if o.u == g.u || o.s == g.s {
					continue
				}
				interference += sc.Users[o.u].TxPowerW * sc.Gain.At(o.u, g.s, j)
			}
			sinr := sc.Users[g.u].TxPowerW * sc.Gain.At(g.u, g.s, j) / (interference + sc.NoiseW)
			gain += d.GainConst
			comm += (d.Phi + d.Psi*sc.Users[g.u].TxPowerW) / (math.Log1p(sinr) / math.Ln2)
		}
	}
	sums := make([]float64, sc.S())
	for u := 0; u < sc.U(); u++ {
		if s, _ := a.SlotOf(u); s != assign.Local {
			sums[s] += sc.Derived(u).SqrtEta
		}
	}
	lambda := 0.0
	for s, sum := range sums {
		if sum > 0 {
			lambda += sum * sum / sc.Servers[s].FHz
		}
	}
	return gain - comm - lambda
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// buildFlatTestScenario draws a randomized instance; numChannels > 64
// exercises wide-channel scenarios.
func buildFlatTestScenario(t testing.TB, seed uint64, users, servers, channels int) *scenario.Scenario {
	t.Helper()
	p := scenario.DefaultParams()
	p.NumUsers = users
	p.NumServers = servers
	p.NumChannels = channels
	p.Workload.WorkCycles = 2500e6
	p.Seed = seed
	sc, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestFlatEvaluatorMatchesReference: the flat-tensor Evaluator and the
// pre-refactor reference formula agree to 1e-9 over randomized scenarios
// and decisions, including N > 64 subchannels, and the Incremental pricer
// agrees with the Evaluator bit for bit.
func TestFlatEvaluatorMatchesReference(t *testing.T) {
	shapes := []struct {
		users, servers, channels int
	}{
		{users: 12, servers: 4, channels: 3},
		{users: 9, servers: 3, channels: 2},
		{users: 24, servers: 3, channels: 70}, // wide-channel scenario
	}
	for _, shape := range shapes {
		for seed := uint64(1); seed <= 5; seed++ {
			sc := buildFlatTestScenario(t, seed, shape.users, shape.servers, shape.channels)
			e := New(sc)
			rng := simrand.New(seed * 977)
			a, err := randomAssignment(sc, rng)
			if err != nil {
				t.Fatal(err)
			}
			inc := NewIncremental(sc, a)
			want := referenceUtility(sc, a)
			if got := e.SystemUtility(a); !relClose(got, want, 1e-9) {
				t.Fatalf("shape %+v seed %d: flat evaluator %.15g, reference %.15g", shape, seed, got, want)
			}
			if got, full := inc.Utility(), e.SystemUtility(a); math.Float64bits(got) != math.Float64bits(full) {
				t.Fatalf("shape %+v seed %d: incremental %.17g, flat evaluator %.17g", shape, seed, got, full)
			}
			// Walk a random move sequence, previewing and (sometimes)
			// accepting; the incremental cache must track the reference.
			committed := a.Clone()
			cand := a.Clone()
			for step := 0; step < 40; step++ {
				mutateAssignment(t, cand, sc, rng)
				preview := inc.Preview(cand)
				want := referenceUtility(sc, cand)
				full := e.SystemUtility(cand)
				if math.Float64bits(preview) != math.Float64bits(full) {
					t.Fatalf("shape %+v seed %d step %d: preview %.17g, flat evaluator %.17g", shape, seed, step, preview, full)
				}
				if !relClose(full, want, 1e-9) {
					t.Fatalf("shape %+v seed %d step %d: flat evaluator %.15g, reference %.15g", shape, seed, step, full, want)
				}
				if rng.Float64() < 0.5 {
					inc.Accept(cand)
					if math.Float64bits(inc.Utility()) != math.Float64bits(full) {
						t.Fatalf("shape %+v seed %d step %d: accepted %.17g, flat evaluator %.17g", shape, seed, step, inc.Utility(), full)
					}
					if err := committed.CopyFrom(cand); err != nil {
						t.Fatal(err)
					}
				} else if err := cand.CopyFrom(committed); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// mutateAssignment applies one random feasibility-preserving change.
func mutateAssignment(t *testing.T, a *assign.Assignment, sc *scenario.Scenario, rng *simrand.Source) {
	t.Helper()
	u := rng.Intn(sc.U())
	switch {
	case !a.IsLocal(u) && rng.Float64() < 0.3:
		a.SetLocal(u)
	default:
		s := rng.Intn(sc.S())
		if j := a.FreeChannel(s, rng.Intn(sc.N())); j != assign.Local {
			if err := a.Offload(u, s, j); err != nil {
				t.Fatal(err)
			}
		} else {
			a.SetLocal(u)
		}
	}
}

// TestFlatEvaluatorMatchesReferenceProperty drives the same agreement
// check through testing/quick over arbitrary seeds.
func TestFlatEvaluatorMatchesReferenceProperty(t *testing.T) {
	sc := buildFlatTestScenario(t, 11, 10, 3, 2)
	e := New(sc)
	prop := func(seed uint64) bool {
		a, err := randomAssignment(sc, simrand.New(seed))
		if err != nil {
			return false
		}
		return relClose(e.SystemUtility(a), referenceUtility(sc, a), 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestLog1pMatchesNaiveLog2 documents why the kernels may use
// Log1p(γ)·invLn2 in place of the historical math.Log2(1+γ): the two agree
// to better than 1e-9 relative for every γ ≥ 1e-7, i.e. throughout the
// operating regime of any assignment a solver would keep. Below that the
// Log1p form is strictly more accurate (1+γ rounds away up to half of γ).
func TestLog1pMatchesNaiveLog2(t *testing.T) {
	for gamma := 1e-7; gamma < 1e9; gamma *= 1.7 {
		naive := math.Log2(1 + gamma)
		flat := math.Log1p(gamma) * (1 / math.Ln2)
		if !relClose(naive, flat, 1e-9) {
			t.Fatalf("γ=%g: Log2(1+γ)=%.17g, Log1p(γ)/ln2=%.17g", gamma, naive, flat)
		}
	}
}

// TestSINRMatchesGroupComputation: the O(S) single-user SINR query equals
// the per-channel group computation to summation-order accuracy.
func TestSINRMatchesGroupComputation(t *testing.T) {
	sc := buildFlatTestScenario(t, 3, 14, 4, 2)
	e := New(sc)
	a, err := randomAssignment(sc, simrand.New(17))
	if err != nil {
		t.Fatal(err)
	}
	e.groupByChannel(a)
	for u := 0; u < sc.U(); u++ {
		s, j := a.SlotOf(u)
		if s == assign.Local {
			if got := e.SINR(a, u); got != 0 {
				t.Fatalf("local user %d has SINR %g", u, got)
			}
			continue
		}
		want := e.sinrInGroup(slot{u: u, s: s}, j, e.byChannel[j])
		if got := e.SINR(a, u); !relClose(got, want, 1e-12) {
			t.Fatalf("user %d: direct SINR %.15g, group SINR %.15g", u, got, want)
		}
	}
}

// TestSystemUtilityAllocFree guards the zero-allocation contract of the
// full-evaluation hot path.
func TestSystemUtilityAllocFree(t *testing.T) {
	sc := buildFlatTestScenario(t, 7, 20, 5, 3)
	e := New(sc)
	a, err := randomAssignment(sc, simrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	e.SystemUtility(a) // warm any lazily sized scratch
	if allocs := testing.AllocsPerRun(200, func() { e.SystemUtility(a) }); allocs != 0 {
		t.Errorf("SystemUtility allocates %.1f objects per call, want 0", allocs)
	}
}

// TestPreviewAcceptAllocFree guards the zero-allocation contract of the
// incremental Preview/Accept path, including N > 64 subchannels.
func TestPreviewAcceptAllocFree(t *testing.T) {
	for _, channels := range []int{3, 70} {
		sc := buildFlatTestScenario(t, 13, 20, 3, channels)
		rng := simrand.New(21)
		cur, err := randomAssignment(sc, rng)
		if err != nil {
			t.Fatal(err)
		}
		inc := NewIncremental(sc, cur)
		cand := cur.Clone()
		// Warm up across a few accepted moves.
		for i := 0; i < 8; i++ {
			mutateAssignment(t, cand, sc, rng)
			inc.Preview(cand)
			inc.Accept(cand)
		}
		allocs := testing.AllocsPerRun(200, func() {
			mutateAssignment(t, cand, sc, rng)
			inc.Preview(cand)
			inc.Accept(cand)
		})
		if allocs != 0 {
			t.Errorf("N=%d: Preview+Accept allocates %.1f objects per call, want 0", channels, allocs)
		}
	}
}
