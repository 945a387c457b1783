// Package rng provides a deterministic, splittable pseudo-random number
// source together with the distribution samplers used throughout the
// temporal-privacy simulator.
//
// Reproducibility is a first-class requirement for the experiment harness:
// every figure in the paper must be regenerable from an (experiment, seed)
// pair. To keep per-node randomness independent of event interleavings, a
// Source can be split into labelled substreams with Split; each simulated
// node draws only from its own substream.
//
// The generator is xoshiro256**, seeded through SplitMix64, which is the
// combination recommended by the xoshiro authors. It is not cryptographically
// secure and must not be used for key material (see package seal for that).
package rng

import (
	"math"
	"strconv"
)

// Source is a deterministic stream of pseudo-random numbers. It is not safe
// for concurrent use; give each goroutine (or simulated node) its own Source
// via Split.
type Source struct {
	state [4]uint64
}

// splitMix64 advances x by the SplitMix64 step and returns the next output.
// It is used for seeding and for deriving substream seeds.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Two Sources created with the same
// seed produce identical streams. New is small enough to inline, so a
// Source that does not outlive its caller stays off the heap.
func New(seed uint64) *Source {
	s := &Source{}
	s.seed(seed)
	return s
}

// seed sets s to the start of seed's stream.
func (s *Source) seed(seed uint64) {
	x := seed
	for i := range s.state {
		s.state[i] = splitMix64(&x)
	}
	// xoshiro256** requires a non-zero state; SplitMix64 cannot produce an
	// all-zero block, but guard anyway so the generator can never lock up.
	if s.state[0]|s.state[1]|s.state[2]|s.state[3] == 0 {
		s.state[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives an independent substream identified by label. Splitting is
// deterministic: the same parent state and label always yield the same
// substream, and drawing from the child does not perturb the parent.
func (s *Source) Split(label string) *Source {
	child := &Source{}
	s.SplitInto(child, label)
	return child
}

// SplitIndexed is shorthand for Split with a label built from a name and an
// index, e.g. per-node substreams ("node", 17).
func (s *Source) SplitIndexed(name string, index int) *Source {
	child := &Source{}
	s.SplitIndexedInto(child, name, index)
	return child
}

// FNV-1a, 64-bit: the label hash substreams have always used (the
// algorithm of hash/fnv's New64a, inlined so a split allocates nothing).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvAdd folds the bytes of b into the FNV-1a hash h.
func fnvAdd[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return h
}

// SplitInto is Split writing the substream into dst instead of a new
// Source, so a component that keeps its Source can be reseeded without
// allocating. dst may be s itself.
func (s *Source) SplitInto(dst *Source, label string) {
	s.splitHashInto(dst, fnvAdd(fnvOffset64, label))
}

// SplitIndexedInto is SplitIndexed writing into dst: it hashes the same
// bytes as the label name + "/" + the decimal index, without building the
// label.
func (s *Source) SplitIndexedInto(dst *Source, name string, index int) {
	var digits [20]byte // the longest int64, sign included
	h := fnvAdd(fnvOffset64, name)
	h = fnvAdd(h, "/")
	h = fnvAdd(h, strconv.AppendInt(digits[:0], int64(index), 10))
	s.splitHashInto(dst, h)
}

// splitHashInto derives the substream of label hash x into dst. Each state
// word of dst depends only on the same word of s, so dst may alias s.
func (s *Source) splitHashInto(dst *Source, x uint64) {
	for i := range dst.state {
		// Mix the parent state with the label hash; do not advance the
		// parent so a split is side-effect free.
		seed := s.state[i] ^ x
		dst.state[i] = splitMix64(&seed)
	}
	if dst.state[0]|dst.state[1]|dst.state[2]|dst.state[3] == 0 {
		dst.state[0] = 1
	}
}

// SetTo overwrites s's state with o's, reseeding s in place. Long-lived
// components that hold a *Source (a node's buffering policy, a link's channel
// state) can be rewound to a fresh substream between engine runs without
// re-plumbing the pointer: after SetTo, s produces exactly the stream a
// freshly split o would.
func (s *Source) SetTo(o *Source) { s.state = o.state }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits (xoshiro256** step).
func (s *Source) Uint64() uint64 {
	result := rotl(s.state[1]*5, 7) * 9
	t := s.state[1] << 17
	s.state[2] ^= s.state[0]
	s.state[3] ^= s.state[1]
	s.state[1] ^= s.state[2]
	s.state[0] ^= s.state[3]
	s.state[2] ^= t
	s.state[3] = rotl(s.state[3], 45)
	return result
}

// Float64 returns a uniformly distributed value in [0, 1) with 53 bits of
// precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// positiveFloat64 returns a uniform value in (0, 1], suitable as the argument
// of a logarithm.
func (s *Source) positiveFloat64() float64 {
	return 1 - s.Float64()
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0;
// this mirrors math/rand and flags a programmer error, not a runtime
// condition.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire-style rejection sampling to remove modulo bias.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := s.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher–Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Exponential returns a sample from the exponential distribution with the
// given mean (mean = 1/rate). The exponential is the maximum-entropy
// distribution over non-negative reals with a fixed mean, which is why the
// paper adopts it as the buffering-delay distribution (§3.2). It panics if
// mean <= 0.
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exponential called with non-positive mean")
	}
	return -mean * math.Log(s.positiveFloat64())
}

// ExponentialRate is Exponential parameterised by rate λ instead of mean.
func (s *Source) ExponentialRate(rate float64) float64 {
	if rate <= 0 {
		panic("rng: ExponentialRate called with non-positive rate")
	}
	return -math.Log(s.positiveFloat64()) / rate
}

// Uniform returns a sample uniformly distributed in [lo, hi). It panics if
// hi < lo.
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Uniform called with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// Erlang returns a sample from the k-stage Erlang distribution with the
// given per-stage mean, i.e. the sum of k independent exponentials. The
// paper's packet-creation times Xj are j-stage Erlangian (§3.2).
func (s *Source) Erlang(k int, stageMean float64) float64 {
	if k <= 0 {
		panic("rng: Erlang called with non-positive stage count")
	}
	// Sum of logs == log of product; one log call instead of k.
	prod := 1.0
	for i := 0; i < k; i++ {
		prod *= s.positiveFloat64()
	}
	if prod <= 0 {
		// Underflow for very large k: fall back to summing individual draws.
		total := 0.0
		for i := 0; i < k; i++ {
			total += s.Exponential(stageMean)
		}
		return total
	}
	return -stageMean * math.Log(prod)
}

// Normal returns a sample from the normal distribution N(mean, stddev²)
// using the Box–Muller transform. It panics if stddev < 0.
func (s *Source) Normal(mean, stddev float64) float64 {
	if stddev < 0 {
		panic("rng: Normal called with negative stddev")
	}
	u1 := s.positiveFloat64()
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Pareto returns a sample from the Pareto (type I) distribution with the
// given scale x_m > 0 and shape α > 0. Heavy-tailed delays are used in the
// delay-distribution ablation.
func (s *Source) Pareto(scale, shape float64) float64 {
	if scale <= 0 || shape <= 0 {
		panic("rng: Pareto called with non-positive scale or shape")
	}
	return scale / math.Pow(s.positiveFloat64(), 1/shape)
}

// Poisson returns a sample from the Poisson distribution with the given
// mean. It uses Knuth's product method for small means and a
// normal approximation with continuity correction for large means, which is
// accurate to well under the statistical noise of any experiment here.
func (s *Source) Poisson(mean float64) int {
	if mean < 0 {
		panic("rng: Poisson called with negative mean")
	}
	if mean == 0 {
		return 0
	}
	if mean > 500 {
		v := math.Floor(s.Normal(mean, math.Sqrt(mean)) + 0.5)
		if v < 0 {
			return 0
		}
		return int(v)
	}
	limit := math.Exp(-mean)
	k := 0
	prod := s.Float64()
	for prod > limit {
		k++
		prod *= s.Float64()
	}
	return k
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}
