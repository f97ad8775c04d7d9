package stats

import (
	"math"
	"math/rand"
	"testing"
)

// The tests in this file pin lazySource to math/rand's seeded
// generator, the reference every golden in the repository was recorded
// against. rand.NewSource appears here and nowhere else in the package.

// stockRNG is the math/rand-backed twin of NewRNG(seed).
func stockRNG(seed uint64) *RNG {
	return &RNG{seed: seed, src: rand.New(rand.NewSource(int64(seed)))}
}

// paritySeeds returns the edge seeds (0, ±1, the Lehmer modulus and
// its neighbours and multiples, the int64 extremes) plus n seeded
// random ones.
func paritySeeds(n int) []int64 {
	const m = int32max
	seeds := []int64{
		0, 1, -1, 2, -2, 89482311,
		m - 1, m, m + 1, -m, -m - 1, -m + 1, 2 * m, -2 * m, 3*m + 7, 1 << 31, 1 << 32,
		m * m, -m * m, m*m + 1,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		(math.MaxInt64 / m) * m, (math.MinInt64 / m) * m,
	}
	r := rand.New(rand.NewSource(20260101))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// reseedPoints are the draw counts around which the lazy state
// machine changes behaviour: the tap cursor finishes its first pass
// after 273 draws, the feed cursor after 334, and the register has
// turned over once after 607.
var reseedPoints = []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 608}

func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := paritySeeds(200)
	if len(seeds) < 200 {
		t.Fatalf("only %d seeds", len(seeds))
	}
	var ls lazySource
	for _, seed := range seeds {
		ls.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < 2000; k++ {
			if got, want := ls.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: got %#x want %#x", seed, k+1, got, want)
			}
		}
	}
}

func TestLazySourceInt63MatchesMathRand(t *testing.T) {
	var ls lazySource
	for _, seed := range paritySeeds(20) {
		ls.Seed(seed)
		ref := rand.NewSource(seed)
		for k := 0; k < 700; k++ {
			if got, want := ls.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: got %d want %d", seed, k+1, got, want)
			}
		}
	}
}

// TestLazySourceReseedAfterKDraws re-seeds one source (never a fresh
// one, so stale words from the previous seed are in the register)
// after every boundary draw count and checks the next stream in full.
func TestLazySourceReseedAfterKDraws(t *testing.T) {
	seeds := paritySeeds(8)
	var ls lazySource
	ls.Seed(12345)
	for _, k := range reseedPoints {
		for i, seed := range seeds {
			for d := 0; d < k; d++ {
				ls.Uint64()
			}
			ls.Seed(seed)
			ref := rand.NewSource(seed).(rand.Source64)
			// Vary how far the check itself advances the source so the
			// k pre-draws above start from different depths too.
			n := 700 + 97*(i%5)
			for d := 0; d < n; d++ {
				if got, want := ls.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("reseed after %d draws, seed %d, draw %d: got %#x want %#x", k, seed, d+1, got, want)
				}
			}
			ls.Seed(seed ^ 0x5a5a)
		}
	}
}

// TestRNGMethodsMatchMathRandTwin drives every RNG method against a
// math/rand-backed twin, interleaved so each starts from a different
// depth of the stream, and across a Reseed.
func TestRNGMethodsMatchMathRandTwin(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, int32max, math.MaxUint64, 0x9e3779b97f4a7c15} {
		a, b := NewRNG(seed), stockRNG(seed)
		for round := 0; round < 3; round++ {
			if round == 2 {
				a.Reseed(seed + 99)
				b.Reseed(seed + 99)
				if a.Seed() != b.Seed() {
					t.Fatalf("seed %d: Seed() %d != %d", seed, a.Seed(), b.Seed())
				}
			}
			for i := 0; i < 40; i++ {
				eq(t, seed, "Float64", a.Float64(), b.Float64())
				eq(t, seed, "Intn", a.Intn(1+i*37), b.Intn(1+i*37))
				eq(t, seed, "Normal", a.Normal(1, 2), b.Normal(1, 2))
				eq(t, seed, "NormFloat64", a.src.NormFloat64(), b.src.NormFloat64())
				eq(t, seed, "Exponential", a.Exponential(3), b.Exponential(3))
				eq(t, seed, "Uniform", a.Uniform(-2, 5), b.Uniform(-2, 5))
				eq(t, seed, "Bernoulli", a.Bernoulli(0.3), b.Bernoulli(0.3))
				eq(t, seed, "Gamma", a.Gamma(0.4, 2), b.Gamma(0.4, 2))
				eq(t, seed, "Gamma", a.Gamma(3.5, 0.5), b.Gamma(3.5, 0.5))
				eq(t, seed, "Beta", a.Beta(2, 5), b.Beta(2, 5))
				eq(t, seed, "Poisson", a.Poisson(4.5), b.Poisson(4.5))
				eq(t, seed, "Poisson", a.Poisson(200), b.Poisson(200))
			}
			pa, pb := a.src.Perm(50), b.src.Perm(50)
			for i := range pa {
				eq(t, seed, "Perm", pa[i], pb[i])
			}
			sa, sb := make([]int, 64), make([]int, 64)
			for i := range sa {
				sa[i], sb[i] = i, i
			}
			a.src.Shuffle(len(sa), func(i, j int) { sa[i], sa[j] = sa[j], sa[i] })
			b.src.Shuffle(len(sb), func(i, j int) { sb[i], sb[j] = sb[j], sb[i] })
			for i := range sa {
				eq(t, seed, "Shuffle", sa[i], sb[i])
			}
			va, vb := a.NormalVec(nil, 300, 0.5, 1.5), b.NormalVec(nil, 300, 0.5, 1.5)
			for i := range va {
				eq(t, seed, "NormalVec", va[i], vb[i])
			}
		}
		// Derived streams seed through the same path.
		ca, cb := a.Stream("child"), stockRNG(b.StreamSeed("child"))
		na, nb := NewRNG(StreamNSeedFrom(a.Seed(), "q", 7)), stockRNG(StreamNSeedFrom(b.Seed(), "q", 7))
		for i := 0; i < 20; i++ {
			eq(t, seed, "Stream", ca.Float64(), cb.Float64())
			eq(t, seed, "StreamNSeedFrom", na.Float64(), nb.Float64())
		}
	}
}

func eq[T comparable](t *testing.T, seed uint64, what string, got, want T) {
	t.Helper()
	if got != want {
		t.Fatalf("seed %d: %s = %v, math/rand twin %v", seed, what, got, want)
	}
}

// FuzzLazySourceParity: for any seed, draw count and re-seed point the
// lazy source and math/rand's agree on every draw, before and after
// the re-seed.
func FuzzLazySourceParity(f *testing.F) {
	for _, k := range reseedPoints {
		f.Add(int64(k)*7919+1, uint16(700), uint16(k))
	}
	f.Add(int64(0), uint16(2000), uint16(0))
	f.Add(int64(math.MinInt64), uint16(10), uint16(5))
	f.Add(int64(int32max), uint16(335), uint16(334))
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16) {
		n, at := int(draws%2048), int(reseedAt%2048)
		var ls lazySource
		ls.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < n; k++ {
			if k == at {
				// Re-seed mid-stream with a seed derived from the
				// stream so far; the register holds stale words.
				next := int64(ls.Uint64())
				ref.Uint64()
				ls.Seed(next)
				ref.Seed(next)
			}
			if got, want := ls.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draws %d reseedAt %d: draw %d got %#x want %#x", seed, n, at, k+1, got, want)
			}
		}
	})
}

var sinkU64 uint64

// BenchmarkReseedDraw20 is the per-query pattern of
// imagespace.Space.SampleQuery / GenerateDeterministic and the
// discriminator's observation cache: re-seed a scratch stream, draw
// about twenty values.
func BenchmarkReseedDraw20(b *testing.B) {
	run := func(b *testing.B, src rand.Source64) {
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
			for d := 0; d < 20; d++ {
				sinkU64 += src.Uint64()
			}
		}
	}
	b.Run("lazy", func(b *testing.B) { run(b, &lazySource{}) })
	b.Run("mathrand", func(b *testing.B) { run(b, rand.NewSource(1).(rand.Source64)) })
}

// BenchmarkLongStream is the steady-state draw cost once both cursors
// have finished their first pass (nothing hot draws more than 334
// values per seed), next to math/rand's.
func BenchmarkLongStream(b *testing.B) {
	run := func(b *testing.B, src rand.Source64) {
		src.Seed(1)
		for d := 0; d < rngLen; d++ {
			src.Uint64()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkU64 += src.Uint64()
		}
	}
	b.Run("lazy", func(b *testing.B) { run(b, &lazySource{}) })
	b.Run("mathrand", func(b *testing.B) { run(b, rand.NewSource(1).(rand.Source64)) })
}
