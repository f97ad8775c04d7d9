package stats

// lazySource is a rand.Source64 that reproduces math/rand's seeded
// generator — the additive lagged-Fibonacci ALFG(607, 273) of
// src/math/rand/rng.go — word for word, but seeds in O(draws) instead
// of O(607).
//
// math/rand's Seed walks a 1841-step Lehmer chain
// x[n] = 48271·x[n-1] mod (2^31 - 1) to fill all 607 state words up
// front (~11 µs), which dominates a stream that is re-seeded per query
// and then draws ~20 values. The chain has a closed form,
// x[n] = 48271^n · x[0] mod (2^31 - 1), so any single state word is
// three modular multiplications against a table of powers. Seed here
// only records x[0]; Uint64 materialises a word the first time the
// generator reads it.
//
// Which reads are first reads needs no per-word bookkeeping. After
// Seed the feed cursor reads words 333, 332, …, 0 on draws 1…334 and
// the tap cursor reads words 606, 605, …, 334 on draws 1…273: the two
// ranges are disjoint and cover the whole register, every later read
// hits a word one of those has already materialised (or the feed has
// since overwritten), so the draw count alone decides. From draw 335
// on Uint64 is math/rand's loop.
type lazySource struct {
	tap, feed int
	// draws counts Uint64 calls since Seed, saturating at lazyFeedDraws.
	draws int
	// x0 is the Lehmer chain's starting value in [1, 2^31 - 2].
	x0  uint64
	vec [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// lehmerA is the seeding chain's multiplier; state word i is built
	// from chain steps lehmerSkip+3i+1 … lehmerSkip+3i+3.
	lehmerA    = 48271
	lehmerSkip = 20

	// lazyTapDraws and lazyFeedDraws are the draw counts up to which
	// the tap and feed cursors are still on their first pass.
	lazyTapDraws  = rngTap
	lazyFeedDraws = rngLen - rngTap
)

// lehmerPow[3i+k] = 48271^(lehmerSkip+3i+k+1) mod (2^31 - 1), k = 0…2:
// the multipliers that take x[0] to the three chain values of word i.
var lehmerPow = func() (pow [3 * rngLen]uint32) {
	x := uint64(1)
	for n := 0; n < lehmerSkip; n++ {
		x = x * lehmerA % int32max
	}
	for n := range pow {
		x = x * lehmerA % int32max
		pow[n] = uint32(x)
	}
	return pow
}()

// Seed implements rand.Source. The state afterwards is the one
// math/rand's Seed(seed) builds, word by word on demand.
func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.draws = 0

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
}

// word returns initial state word i for the recorded seed.
func (s *lazySource) word(i int) int64 {
	p := lehmerPow[3*i : 3*i+3]
	u := int64(s.x0*uint64(p[0])%int32max) << 40
	u ^= int64(s.x0*uint64(p[1])%int32max) << 20
	u ^= int64(s.x0 * uint64(p[2]) % int32max)
	return u ^ rngCooked[i]
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.draws < lazyFeedDraws {
		s.vec[s.feed] = s.word(s.feed)
		if s.draws < lazyTapDraws {
			s.vec[s.tap] = s.word(s.tap)
		}
		s.draws++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
