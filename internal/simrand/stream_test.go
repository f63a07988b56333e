package simrand

import (
	"math"
	"math/rand"
	"testing"
)

// The tests in this file pin the contract that makes lazy seeding safe:
// every Source stream equals math/rand v1's stream for the same mixed seed,
// bit for bit, well past the point where the register is fully seeded.

// streamDraws covers two full register periods, so every word is read
// both as freshly seeded and after the feedback has rewritten it.
const streamDraws = 2*rngLen + 100

// refStream is the reference a Source must match: math/rand v1 seeded with
// the SplitMix64-mixed seed, with the same distribution helpers.
type refStream struct{ r *rand.Rand }

func newRef(seed uint64) refStream {
	return refStream{rand.New(rand.NewSource(int64(splitMix64(seed))))}
}

func (f refStream) Normal(mean, std float64) float64 { return mean + std*f.r.NormFloat64() }

func (f refStream) LogNormalDB(stdDB float64) float64 {
	return math.Pow(10, f.Normal(0, stdDB)/10)
}

// compareStreams draws a mixed sequence of streamDraws calls from both
// streams, cycling through every helper, and fails at the first mismatch.
func compareStreams(t *testing.T, name string, got *Source, want refStream) {
	t.Helper()
	var gp, wp [9]int
	for i := 0; i < streamDraws; i++ {
		var g, w float64
		switch i % 7 {
		case 0:
			g, w = got.Float64(), want.r.Float64()
		case 1:
			n := 1 + i%97
			g, w = float64(got.Intn(n)), float64(want.r.Intn(n))
		case 2:
			g, w = got.Normal(3, 2), want.Normal(3, 2)
		case 3:
			g, w = got.LogNormalDB(8), want.LogNormalDB(8)
		case 4:
			// Intn above 2³¹ takes math/rand's 63-bit path.
			g, w = float64(got.Intn(1<<40+i)), float64(want.r.Intn(1<<40+i))
		case 5:
			gs, ws := got.Perm(len(gp)), want.r.Perm(len(wp))
			for k := range gs {
				if gs[k] != ws[k] {
					t.Fatalf("%s: Perm at call %d = %v, want %v", name, i, gs, ws)
				}
			}
			continue
		case 6:
			for k := range gp {
				gp[k], wp[k] = k, k
			}
			got.Shuffle(len(gp), func(a, b int) { gp[a], gp[b] = gp[b], gp[a] })
			want.r.Shuffle(len(wp), func(a, b int) { wp[a], wp[b] = wp[b], wp[a] })
			if gp != wp {
				t.Fatalf("%s: Shuffle at call %d = %v, want %v", name, i, gp, wp)
			}
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: call %d (helper %d) = %v, want %v", name, i, i%7, g, w)
		}
	}
}

func TestMatchesMathRand(t *testing.T) {
	seeds := 5000
	if testing.Short() {
		seeds = 500
	}
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		compareStreams(t, "New", New(seed), newRef(seed))
	}
}

// TestSeedingEndsMidCall covers a single helper call whose draws run from
// the lazily seeded register into the fully seeded one.
func TestSeedingEndsMidCall(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		got, want := New(seed).Perm(1000), newRef(seed).r.Perm(1000)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: Perm(1000)[%d] = %d, want %d", seed, i, got[i], want[i])
			}
		}
		compareStreams(t, "after Perm", New(seed), newRef(seed))
	}
}

func TestDerivedMatchesMathRand(t *testing.T) {
	parents := 2500
	if testing.Short() {
		parents = 250
	}
	for p := 0; p < parents; p++ {
		parent := New(uint64(p) * 0x9e3779b97f4a7c15)
		for _, label := range []uint64{uint64(p), math.MaxUint64 - uint64(p)} {
			child := parent.Derive(label)
			compareStreams(t, "Derive", child, newRef(splitMix64(parent.Seed()^splitMix64(label))))
		}
	}
}

// edgeSeeds are the int64 seeds where math/rand's seed reduction takes a
// special branch: zero (replaced by 89482311), negatives, multiples of the
// LCG modulus M = 2³¹−1 (which reduce to zero), and their neighbours.
var edgeSeeds = []int64{
	0, 1, -1, 2, -2,
	int32max, -int32max, 2 * int32max, -2 * int32max, int32max * int32max,
	int32max - 1, int32max + 1, -int32max - 1, -int32max + 1,
	zeroSeedAlt, -zeroSeedAlt, zeroSeedAlt + int32max,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	math.MaxInt64 - math.MaxInt64%int32max, // largest multiple of M
}

func TestLazySourceEdgeSeeds(t *testing.T) {
	for _, seed := range edgeSeeds {
		var got lazySource
		got.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < streamDraws; i++ {
			var g, w uint64
			if i%2 == 0 {
				g, w = got.Uint64(), want.Uint64()
			} else {
				g, w = uint64(got.Int63()), uint64(want.Int63())
			}
			if g != w {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

// TestNewEdgeSeeds reaches the same edge seeds through the public API by
// inverting New's SplitMix64 mix.
func TestNewEdgeSeeds(t *testing.T) {
	for _, target := range edgeSeeds {
		seed := unSplitMix64(uint64(target))
		if int64(splitMix64(seed)) != target {
			t.Fatalf("unSplitMix64(%d) does not invert the mix", target)
		}
		want := refStream{rand.New(rand.NewSource(target))}
		compareStreams(t, "New(edge)", New(seed), want)
	}
}

func TestRegisterSeed(t *testing.T) {
	for _, seed := range edgeSeeds {
		var got register
		got.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < streamDraws; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

func TestLazySourceReseed(t *testing.T) {
	var got lazySource
	got.Seed(7)
	for i := 0; i < 1000; i++ {
		got.Uint64()
	}
	got.Seed(8)
	want := rand.NewSource(8).(rand.Source64)
	for i := 0; i < streamDraws; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("reseeded draw %d = %#x, want %#x", i, g, w)
		}
	}
}

func TestMulModM(t *testing.T) {
	for _, a := range []uint64{1, 2, lcgMul, zeroSeedAlt, int32max - 1, 1 << 30, 1<<31 - 2} {
		for _, b := range []uint64{1, lcgMul, int32max - 1, int32max - 2, 1 << 30} {
			if got, want := mulModM(a, b), a*b%int32max; got != want {
				t.Errorf("mulModM(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

var sinkSource *Source

func TestAllocs(t *testing.T) {
	parent := New(1)
	deriveOnly := testing.AllocsPerRun(100, func() {
		sinkSource = parent.Derive(2)
	})
	if deriveOnly >= 3 {
		t.Errorf("derive-only source: %v allocs, want < 3", deriveOnly)
	}
	drawn := testing.AllocsPerRun(100, func() {
		s := parent.Derive(3)
		s.Float64()
		sinkSource = s
	})
	if drawn > 3 {
		t.Errorf("drawn source: %v allocs, want <= 3", drawn)
	}
	t.Logf("allocs: derive-only %v, drawn %v", deriveOnly, drawn)
}

// unSplitMix64 inverts splitMix64.
func unSplitMix64(z uint64) uint64 {
	z = unXorShift(z, 31)
	z *= mulInverse(0x94d049bb133111eb)
	z = unXorShift(z, 27)
	z *= mulInverse(0xbf58476d1ce4e5b9)
	z = unXorShift(z, 30)
	return z - 0x9e3779b97f4a7c15
}

// unXorShift inverts y = x ^ x>>s.
func unXorShift(y uint64, s uint) uint64 {
	x := y
	for i := uint(0); i < 64; i += s {
		x = y ^ x>>s
	}
	return x
}

// mulInverse returns the inverse of odd c modulo 2⁶⁴ by Newton iteration.
func mulInverse(c uint64) uint64 {
	inv := c
	for i := 0; i < 5; i++ {
		inv *= 2 - c*inv
	}
	return inv
}

// BenchmarkDerive is the delta row-refresh shape: an epoch stream derived
// from a long-lived radio stream, a per-user stream derived from that, and
// one user's S×N = 27 shadowing draws.
func BenchmarkDerive(b *testing.B) {
	radio := New(1)
	b.ReportAllocs()
	var sum float64
	for i := 0; i < b.N; i++ {
		rng := radio.Derive(uint64(i / 64)).Derive(uint64(i % 64))
		for k := 0; k < 27; k++ {
			sum += rng.LogNormalDB(8)
		}
	}
	sinkFloat = sum
}

// BenchmarkDraw is steady-state drawing, as in TTSA's move loop: one Intn
// and one Float64 per iteration from a long-lived stream.
func BenchmarkDraw(b *testing.B) {
	rng := New(1)
	b.ReportAllocs()
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += float64(rng.Intn(30)) + rng.Float64()
	}
	sinkFloat = sum
}

var sinkFloat float64
