// Package sim provides the deterministic simulation primitives shared by
// every component of the MAC reproduction: a cycle clock, the Ticker
// component contract, and a fast deterministic random number generator.
//
// All simulations in this repository are fully deterministic: the same
// configuration and seed always produce bit-identical traces, packet
// streams, and statistics.
package sim

import "math/bits"

// RNG is a small, fast, deterministic pseudo random number generator
// (xoshiro256** seeded through splitmix64). It is not safe for concurrent
// use; give each logical thread of a workload its own RNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Any seed, including zero,
// yields a usable state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// NewStream returns a generator for substream `stream` of `seed`:
// independent, order-stable per-worker streams (seed + thread id for
// workload generation).
//
// The derivation is deliberately nonlinear. The obvious
// `NewRNG(seed*C1 + stream*C2)` construction aliases: because the mix
// is linear in both inputs, for any two stream ids a != b there is a
// seed shift d = (b-a)*C2/C1 (mod 2^64) with
// seed*C1 + a*C2 == (seed+d)*C1 + b*C2 — two different (seed, stream)
// pairs replaying the identical sequence. NewStream feeds the stream
// id through a full splitmix64 finalizer before combining, so distinct
// pairs collide only with hash-collision probability instead of along
// whole affine families.
func NewStream(seed, stream uint64) *RNG {
	r := &RNG{}
	r.SeedStream(seed, stream)
	return r
}

// SeedStream resets the generator to substream `stream` of `seed`.
func (r *RNG) SeedStream(seed, stream uint64) {
	r.Seed(seed ^ splitmix64(stream))
}

// splitmix64 is the splitmix64 finalizer: a bijective avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seed resets the generator state derived from seed via splitmix64.
func (r *RNG) Seed(seed uint64) {
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Uint64 returns the next 64 pseudo random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Uint32 returns the next 32 pseudo random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	// Lemire's nearly-divisionless bounded generation.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm fills out with a uniform random permutation of [0, len(out)).
func (r *RNG) Perm(out []int32) {
	for i := range out {
		out[i] = int32(i)
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}
