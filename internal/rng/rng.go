// Package rng provides a small, deterministic random number generator and
// the distributions the simulator needs.
//
// The generator is a 64-bit SplitMix64-seeded xoshiro256** — implemented
// here rather than using math/rand so that streams are (a) identical across
// Go releases, which keeps every experiment in EXPERIMENTS.md exactly
// reproducible, and (b) cheaply splittable: each replication of an
// experiment derives an independent child stream from (seed, replication
// index) without any shared state.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// It is not safe for concurrent use; derive one per goroutine with Child.
type RNG struct {
	s [4]uint64

	// cached spare normal deviate for the polar method
	hasSpare bool
	spare    float64
}

// splitMix64 advances x and returns the next SplitMix64 output. It is used
// only for seeding, as recommended by the xoshiro authors.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed. Distinct seeds
// yield independent-looking streams; the zero seed is valid.
func New(seed uint64) *RNG {
	r := new(RNG)
	r.Seed(seed)
	return r
}

// Seed resets r, in place, to the stream New(seed) starts: the
// allocation-free form of New, for a caller that draws a fresh stream per
// item into one generator it owns.
func (r *RNG) Seed(seed uint64) {
	*r = RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Clone returns an exact copy of the generator's state. The clone and the
// original produce identical streams from this point on — used to fork a
// memoized energy source so lazy tail extension draws the same deviates in
// every fork (internal/energy).
func (r *RNG) Clone() *RNG {
	c := *r
	return &c
}

// Child derives an independent generator from this one's seed space using a
// stream index. Calling Child(i) with distinct i values yields streams that
// do not overlap in practice; the parent is not advanced.
func (r *RNG) Child(stream uint64) *RNG {
	c := new(RNG)
	r.ChildInto(c, stream)
	return c
}

// ChildInto resets dst, in place, to the stream Child(stream) returns: the
// allocation-free form of Child. dst may be r itself.
func (r *RNG) ChildInto(dst *RNG, stream uint64) {
	// Mix the parent state with the stream index through SplitMix64.
	x := r.s[0] ^ (r.s[1] << 1) ^ stream*0xd1342543de82ef95
	dst.Seed(splitMix64(&x))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform deviate in [0, 1) with 53 bits of precision.
// The outer conversion ends the expression: the scaling, compiled as a
// multiply, cannot fuse into an add of an inlining caller.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Uniform returns a uniform deviate in [lo, hi). It panics if hi < lo.
func (r *RNG) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Uniform bounds inverted")
	}
	return lo + float64((hi-lo)*r.Float64())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method (unbiased).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// Normal returns a standard normal deviate (mean 0, variance 1) using the
// Marsaglia polar method; spare deviates are cached.
func (r *RNG) Normal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s >= 1 || s == 0 {
			continue
		}
		m := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * m
		r.hasSpare = true
		return u * m
	}
}

// HalfNormal returns |Normal()|: the half-normal distribution with
// E[X] = sqrt(2/pi) ≈ 0.7979. The paper's energy source (eq. 13) shows a
// non-negative power trace, which this reproduces (DESIGN.md §5.2).
func (r *RNG) HalfNormal() float64 {
	return math.Abs(r.Normal())
}

// Exponential returns an exponential deviate with the given rate (λ > 0).
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	// 1-Float64() is in (0,1], so Log never sees zero.
	return -math.Log(1-r.Float64()) / rate
}

// Choice returns a uniformly chosen element of vals. It panics on an empty
// slice.
func Choice[T any](r *RNG, vals []T) T {
	if len(vals) == 0 {
		panic("rng: Choice on empty slice")
	}
	return vals[r.Intn(len(vals))]
}
