// Package stats provides deterministic random number generation,
// probability distributions, and streaming statistics used throughout
// the DiffServe simulator.
//
// All stochastic components in this repository draw from seeded RNG
// streams created by this package, so every experiment is reproducible
// bit-for-bit for a given root seed.
package stats

import (
	"math"
	"math/rand"
)

// FNV-1a constants (identical to hash/fnv's 64-bit variant). The hash
// is inlined so stream-seed derivation allocates nothing on the hot
// image-generation path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime64
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// RNG is a deterministic random number generator supporting named
// sub-stream derivation. Deriving a child stream with a stable name
// decouples the randomness consumed by independent components: adding
// draws to one component does not perturb another.
//
// The stream for a seed is bit-identical to
// rand.New(rand.NewSource(int64(seed)))'s — every golden in the
// repository depends on that — but it is produced by lazySource, which
// seeds in O(draws): creating or re-seeding an RNG costs nothing until
// values are drawn, so a per-query stream of ~20 draws no longer pays
// for 607 state words.
type RNG struct {
	seed uint64
	src  *rand.Rand
}

// NewRNG returns a new RNG seeded with the given root seed.
func NewRNG(seed uint64) *RNG {
	ls := &lazySource{}
	ls.Seed(int64(seed))
	return &RNG{seed: seed, src: rand.New(ls)}
}

// Stream derives an independent child RNG identified by name.
// The child's seed is a hash of the parent seed and the name, so the
// same (seed, name) pair always yields the same stream.
func (r *RNG) Stream(name string) *RNG {
	return NewRNG(r.StreamSeed(name))
}

// StreamN derives an independent child RNG identified by name and index,
// convenient for per-query or per-worker streams.
func (r *RNG) StreamN(name string, n int) *RNG {
	return NewRNG(StreamNSeedFrom(r.seed, name, n))
}

// StreamSeed returns the seed Stream(name) would give its child,
// without allocating the child.
func (r *RNG) StreamSeed(name string) uint64 {
	return fnvString(fnvUint64(fnvOffset64, r.seed), name)
}

// StreamSeed2 returns StreamSeed(prefix+name) without materializing
// the concatenated string.
func (r *RNG) StreamSeed2(prefix, name string) uint64 {
	return fnvString(fnvString(fnvUint64(fnvOffset64, r.seed), prefix), name)
}

// StreamNSeedFrom returns the seed that an RNG seeded with seed would
// derive via StreamN(name, n).
func StreamNSeedFrom(seed uint64, name string, n int) uint64 {
	return fnvUint64(fnvString(fnvUint64(fnvOffset64, seed), name), uint64(n))
}

// Reseed resets the RNG in place to the given seed, reusing its
// source. The state afterwards is identical to NewRNG(seed)'s; the
// call itself is O(1) (see lazySource).
func (r *RNG) Reseed(seed uint64) {
	r.seed = seed
	r.src.Seed(int64(seed))
}

// Seed returns the seed this RNG was created with.
func (r *RNG) Seed() uint64 { return r.seed }

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform sample in [0, n).
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Normal returns a sample from the normal distribution N(mu, sigma^2).
func (r *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*r.src.NormFloat64()
}

// StdNormal returns a sample from N(0, 1).
func (r *RNG) StdNormal() float64 { return r.src.NormFloat64() }

// Exponential returns a sample from the exponential distribution with
// the given rate (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential requires rate > 0")
	}
	return r.src.ExpFloat64() / rate
}

// Uniform returns a sample from the uniform distribution on [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.src.Float64() < p }

// Gamma returns a sample from the Gamma distribution with the given
// shape and scale parameters, using the Marsaglia–Tsang method.
// It panics if shape <= 0 or scale <= 0.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("stats: Gamma requires shape > 0 and scale > 0")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
		u := r.src.Float64()
		for u == 0 {
			u = r.src.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.src.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Beta returns a sample from the Beta(a, b) distribution.
// It panics if a <= 0 or b <= 0.
func (r *RNG) Beta(a, b float64) float64 {
	x := r.Gamma(a, 1)
	y := r.Gamma(b, 1)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Poisson returns a sample from the Poisson distribution with the given
// mean. For large means it uses a normal approximation. It panics if
// mean < 0.
func (r *RNG) Poisson(mean float64) int {
	if mean < 0 {
		panic("stats: Poisson requires mean >= 0")
	}
	if mean == 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction.
		k := int(math.Round(r.Normal(mean, math.Sqrt(mean))))
		if k < 0 {
			k = 0
		}
		return k
	}
	// Knuth's method.
	limit := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.src.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// NormalVec fills dst with independent N(mu, sigma^2) samples and
// returns it. If dst is nil, a new slice of length n is allocated.
func (r *RNG) NormalVec(dst []float64, n int, mu, sigma float64) []float64 {
	if dst == nil {
		dst = make([]float64, n)
	}
	for i := range dst {
		dst[i] = mu + sigma*r.src.NormFloat64()
	}
	return dst
}
