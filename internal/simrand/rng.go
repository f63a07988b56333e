package simrand

// This file reimplements math/rand v1's rngSource, the additive
// lagged-Fibonacci generator x[n] = x[n-607] + x[n-273] (mod 2⁶⁴) by
// Mitchell and Reeds, with the same seeding and the same output, but seeds
// its 607-word register lazily.
//
// math/rand seeds word i by running the Lehmer LCG x ← 48271·x mod (2³¹−1)
// forward from the seed: after 20 warm-up steps, word i takes the three
// LCG states x₍₂₁₊₃ᵢ₎, x₍₂₂₊₃ᵢ₎ and x₍₂₃₊₃ᵢ₎, packed as x<<40 ^ x<<20 ^ x and
// XORed with rngCooked[i]. That is 1,841 sequential steps per seed, about
// 20 µs, paid even by a stream that draws a few dozen values. Because
// xₙ = seed·48271ⁿ mod (2³¹−1), any word can be computed directly from a
// table of powers (jump-ahead), so a word is computed only when a draw first
// reads it. A draw reads two words (feed and tap), so a stream that makes k
// draws seeds at most 2k words; after 334 draws every word has been read
// and drawing runs on the plain register.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the LCG modulus M, a Mersenne prime

	lcgMul      = 48271
	zeroSeedAlt = 89482311 // math/rand's replacement for a seed ≡ 0 (mod M)
)

// lcgPow[i][k] = 48271^(21+3i+k) mod M: the LCG steps that seed word i.
var lcgPow = func() (t [rngLen][3]uint32) {
	p := uint64(1)
	for n := 1; n <= 20; n++ {
		p = mulModM(p, lcgMul)
	}
	for i := range t {
		for k := range t[i] {
			p = mulModM(p, lcgMul)
			t[i][k] = uint32(p)
		}
	}
	return t
}()

// mulModM returns a·b mod M for a, b < M without division: because
// 2³¹ ≡ 1 (mod M), two folds of the high bits onto the low 31 bring a
// product below 2⁶² to at most M+1.
func mulModM(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// register is math/rand v1's feedback register and draw step, unchanged.
// Once every word is seeded, a stream draws from it directly.
type register struct {
	tap, feed int
	vec       [rngLen]int64
}

// Seed seeds every register word up front, like rand.NewSource.
func (r *register) Seed(seed int64) {
	var l lazySource
	l.Seed(seed)
	for i := range l.vec {
		l.touch(i)
	}
	*r = l.register
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *register) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit value.
func (r *register) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// lazySource is a rand.Source64 whose output equals rand.NewSource's for
// the same seed, bit for bit. Each register word is computed from the seed
// just before a draw first reads it.
type lazySource struct {
	register
	seed     uint64                     // seed reduced into [1, M)
	unseeded int                        // register words not yet computed
	seeded   [(rngLen + 63) / 64]uint64 // bitmap of computed words
}

// Seed resets the generator to the state rand.NewSource(seed) starts in,
// with no register word computed yet.
func (r *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeedAlt
	}
	*r = lazySource{
		register: register{feed: rngLen - rngTap},
		seed:     uint64(seed),
		unseeded: rngLen,
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *lazySource) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit value.
func (r *lazySource) Uint64() uint64 {
	if r.unseeded != 0 {
		r.touch(prev(r.feed))
		r.touch(prev(r.tap))
	}
	return r.register.Uint64()
}

// prev is the register index before i, which the next draw reads.
func prev(i int) int {
	if i == 0 {
		return rngLen - 1
	}
	return i - 1
}

// touch computes register word i from the seed unless it already has been.
func (r *lazySource) touch(i int) {
	bit := uint64(1) << (i & 63)
	if r.seeded[i>>6]&bit != 0 {
		return
	}
	r.seeded[i>>6] |= bit
	r.unseeded--
	p := &lcgPow[i]
	u := int64(mulModM(r.seed, uint64(p[0]))) << 40
	u ^= int64(mulModM(r.seed, uint64(p[1]))) << 20
	u ^= int64(mulModM(r.seed, uint64(p[2])))
	r.vec[i] = u ^ rngCooked[i]
}
