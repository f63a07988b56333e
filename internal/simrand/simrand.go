// Package simrand provides the deterministic randomness substrate for the
// TSAJS simulator.
//
// Every stochastic component (user placement, shadowing, workload jitter,
// the annealing schedule) draws from a Source created here, so that a
// scenario is fully reproducible from a single seed. Independent streams
// for independent trials are derived with Derive, which mixes the parent
// seed with a label using SplitMix64 so that trial i of experiment A never
// shares a stream with trial i of experiment B.
//
// A Source's output equals math/rand v1's, bit for bit:
// New(seed) draws exactly what rand.New(rand.NewSource(int64(m))) draws,
// where m is seed mixed once by SplitMix64. Only the cost of seeding
// differs. math/rand seeds its 607-word register up front through 1,841
// sequential LCG steps; here the generator is built on a Source's first
// draw, and each register word is computed from the seed by LCG
// jump-ahead when a draw first reads it (see rng.go). A Source used only
// to Derive children is a single small allocation, and a stream that
// makes k draws seeds about 2k words instead of 607.
package simrand

import (
	"math"
	"math/rand"
)

// Source is a deterministic random source with the distribution helpers the
// simulator needs. It wraps math/rand with an explicit seed so it can be
// derived and replayed. A Source is not safe for concurrent draws; Derive
// only reads the seed.
type Source struct {
	rng   *rand.Rand // where draws go: &first while seeding, then &gen.plain
	first rand.Rand  // math/rand's helpers over seedingDraws
	gen   *generator // built on the first draw
	seed  uint64
}

// generator is a Source's register, allocated on its first draw, with
// math/rand's helpers drawing straight from it once it is fully seeded.
type generator struct {
	plain rand.Rand
	src   lazySource
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	s := &Source{seed: seed}
	s.first = *rand.New((*seedingDraws)(s))
	s.rng = &s.first
	return s
}

// seedingDraws is the rand.Source a Source's first draws come from. It
// builds the generator on the first draw and draws from the lazily seeded
// register; once every word is seeded it points the Source at the plain
// view, so steady-state draws cost what math/rand's own source costs.
type seedingDraws Source

func (d *seedingDraws) Uint64() uint64 {
	g := d.gen
	if g == nil {
		g = new(generator)
		g.src.Seed(int64(splitMix64(d.seed)))
		g.plain = *rand.New(&g.src.register)
		d.gen = g
	}
	x := g.src.Uint64()
	if g.src.unseeded == 0 {
		d.rng = &g.plain
	}
	return x
}

func (d *seedingDraws) Int63() int64 { return int64(d.Uint64() & rngMask) }

// Seed is never called: a Source never reseeds its rand.Rand.
func (d *seedingDraws) Seed(int64) { panic("simrand: a Source cannot be reseeded") }

// Seed returns the seed this source was created from.
func (s *Source) Seed() uint64 { return s.seed }

// Derive returns a new independent Source whose seed deterministically
// combines this source's seed with the given label. Use distinct labels for
// distinct purposes (e.g. one per trial, one per subsystem).
func (s *Source) Derive(label uint64) *Source {
	return New(splitMix64(s.seed ^ splitMix64(label)))
}

// Float64 returns a uniform sample in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform sample in [0, n). n must be > 0.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (s *Source) Normal(mean, std float64) float64 {
	return mean + std*s.rng.NormFloat64()
}

// LogNormalDB returns a multiplicative linear-domain factor whose decibel
// value is Gaussian with zero mean and the given standard deviation in dB.
// This is the standard model for lognormal shadowing: a stdDB of 0 returns
// exactly 1.
func (s *Source) LogNormalDB(stdDB float64) float64 {
	if stdDB == 0 {
		return 1
	}
	return math.Pow(10, s.Normal(0, stdDB)/10)
}

// UniformDisc returns a point sampled uniformly from a disc of the given
// radius centred at the origin, as (x, y).
func (s *Source) UniformDisc(radius float64) (x, y float64) {
	r := radius * math.Sqrt(s.Float64())
	theta := 2 * math.Pi * s.Float64()
	return r * math.Cos(theta), r * math.Sin(theta)
}

// splitMix64 is the SplitMix64 mixing function; it turns correlated seeds
// into statistically independent ones.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
