package imagespace

import (
	"math"
	"sync"
	"testing"

	"diffserve/internal/stats"
)

// randomFeatures draws n feature vectors with a non-trivial mean and
// correlation structure.
func randomFeatures(rng *stats.RNG, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		shared := rng.Normal(0.5, 2)
		for j := range v {
			v[j] = shared*0.3 + rng.Normal(float64(j)*0.1, 1+0.05*float64(j))
		}
		out[i] = v
	}
	return out
}

// TestMomentAccumulatorMatchesBatchMoments checks the streaming
// accumulator against the batch two-pass Moments computation to 1e-9
// on random data.
func TestMomentAccumulatorMatchesBatchMoments(t *testing.T) {
	rng := stats.NewRNG(1234)
	for _, n := range []int{2, 3, 17, 500} {
		feats := randomFeatures(rng, n, 16)
		mu, sigma, err := Moments(feats)
		if err != nil {
			t.Fatal(err)
		}
		acc := stats.NewMomentAccumulator(16)
		for _, f := range feats {
			acc.Add(f)
		}
		if acc.Count() != n {
			t.Fatalf("n=%d: count %d", n, acc.Count())
		}
		sMu := acc.Mean()
		cov, err := acc.CovarianceInto(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range mu {
			if math.Abs(mu[i]-sMu[i]) > 1e-9 {
				t.Errorf("n=%d: mean[%d] batch %v streaming %v", n, i, mu[i], sMu[i])
			}
			for j := range mu {
				if d := math.Abs(sigma.At(i, j) - cov[i*16+j]); d > 1e-9 {
					t.Errorf("n=%d: cov[%d,%d] differs by %v", n, i, j, d)
				}
			}
		}
	}
}

// TestMomentAccumulatorMergeOrderInvariant checks Chan-style merging:
// any split of the stream, merged in any order, agrees with a single
// sequential accumulation to 1e-9.
func TestMomentAccumulatorMergeOrderInvariant(t *testing.T) {
	rng := stats.NewRNG(99)
	const n, dim = 301, 8
	feats := randomFeatures(rng, n, dim)

	whole := stats.NewMomentAccumulator(dim)
	for _, f := range feats {
		whole.Add(f)
	}
	wantMu := whole.Mean()
	wantCov, err := whole.CovarianceInto(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Three shards of uneven sizes, merged in two different orders.
	splits := [][2]int{{0, 7}, {7, 160}, {160, n}}
	mkShard := func(k int) *stats.MomentAccumulator {
		a := stats.NewMomentAccumulator(dim)
		for _, f := range feats[splits[k][0]:splits[k][1]] {
			a.Add(f)
		}
		return a
	}
	for _, order := range [][3]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
		m := stats.NewMomentAccumulator(dim)
		for _, k := range order {
			if err := m.Merge(mkShard(k)); err != nil {
				t.Fatal(err)
			}
		}
		if m.Count() != n {
			t.Fatalf("order %v: count %d", order, m.Count())
		}
		mu := m.Mean()
		cov, err := m.CovarianceInto(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < dim; i++ {
			if math.Abs(mu[i]-wantMu[i]) > 1e-9 {
				t.Errorf("order %v: mean[%d] off by %v", order, i, mu[i]-wantMu[i])
			}
			for j := 0; j < dim; j++ {
				if d := math.Abs(cov[i*dim+j] - wantCov[i*dim+j]); d > 1e-9 {
					t.Errorf("order %v: cov[%d,%d] off by %v", order, i, j, d)
				}
			}
		}
	}

	// Merging into an empty accumulator copies exactly.
	empty := stats.NewMomentAccumulator(dim)
	if err := empty.Merge(whole); err != nil {
		t.Fatal(err)
	}
	if empty.Count() != whole.Count() {
		t.Fatal("empty-merge count mismatch")
	}

	// Dimension mismatch is rejected.
	if err := whole.Merge(stats.NewMomentAccumulator(dim + 1)); err == nil {
		t.Fatal("merge with wrong dim should fail")
	}
}

// TestGenerateDeterministicCacheByteIdentical checks that the
// memoized deterministic generation returns byte-identical images to
// the underlying uncached generation path, call after call.
func TestGenerateDeterministicCacheByteIdentical(t *testing.T) {
	rng := stats.NewRNG(7)
	space := NewSpace(rng.Stream("space"))
	p := GenParams{ArtifactBase: 0.4, ArtifactSlope: 5, ArtifactNoise: 0.3, DirSkew: 0.2, DirAxis: 1, Contraction: 0.9, NoiseStd: 0.4}
	for id := 0; id < 64; id++ {
		q := space.SampleQuery(id)
		// The uncached reference: the documented stream derivation.
		want := generateFresh(space, q, p, stats.NewRNG(stats.StreamNSeedFrom(rng.Stream("space").Stream("gen:variantA").Seed(), "q", q.ID)))
		// Fresh space with the same seed, exercising the memo twice.
		got1 := space.GenerateDeterministic(q, "variantA", p)
		got2 := space.GenerateDeterministic(q, "variantA", p)
		if got1.Artifact != want.Artifact || got2.Artifact != got1.Artifact {
			t.Fatalf("id %d: artifact mismatch: %v %v %v", id, want.Artifact, got1.Artifact, got2.Artifact)
		}
		for i := range want.Features {
			if got1.Features[i] != want.Features[i] {
				t.Fatalf("id %d: feature[%d] cached %v uncached %v", id, i, got1.Features[i], want.Features[i])
			}
			if got2.Features[i] != got1.Features[i] {
				t.Fatalf("id %d: cache replay diverged at feature[%d]", id, i)
			}
		}
		if got1.Variant != "variantA" {
			t.Fatalf("variant label %q", got1.Variant)
		}
	}
}

// TestGenerateDeterministicDistinctParams checks that two variants
// sharing a name but not parameters do not collide in the cache.
func TestGenerateDeterministicDistinctParams(t *testing.T) {
	rng := stats.NewRNG(8)
	space := NewSpace(rng.Stream("space"))
	q := space.SampleQuery(3)
	pa := GenParams{ArtifactBase: 0.1, ArtifactSlope: 2, Contraction: 1, NoiseStd: 0.1}
	pb := pa
	pb.ArtifactBase = 3
	a := space.GenerateDeterministic(q, "same", pa)
	b := space.GenerateDeterministic(q, "same", pb)
	if a.Artifact == b.Artifact {
		t.Fatal("distinct params must not share a cache entry")
	}
}

// TestGenerateWithReuseDoesNotCorruptCache checks that the reuse
// path's feature mutation does not leak into the memoized fresh
// generation.
func TestGenerateWithReuseDoesNotCorruptCache(t *testing.T) {
	rng := stats.NewRNG(9)
	space := NewSpace(rng.Stream("space"))
	light := GenParams{ArtifactBase: 0.3, ArtifactSlope: 6, ArtifactNoise: 0.2, DirSkew: 0.6, DirAxis: 2, Contraction: 0.85, NoiseStd: 0.35}
	heavy := GenParams{ArtifactBase: 0.6, ArtifactSlope: 1.5, ArtifactNoise: 0.2, DirSkew: 0.1, DirAxis: 1, Contraction: 0.95, NoiseStd: 0.3}
	q := space.SampleQuery(11)
	fresh1 := space.GenerateDeterministic(q, "heavy", heavy)
	before := append([]float64(nil), fresh1.Features...)
	li := space.GenerateDeterministic(q, "light", light)
	reused := space.GenerateWithReuse(q, "heavy", heavy, li, light)
	fresh2 := space.GenerateDeterministic(q, "heavy", heavy)
	for i := range before {
		if fresh2.Features[i] != before[i] {
			t.Fatalf("reuse mutated the cached fresh image at feature[%d]", i)
		}
	}
	if reused.Artifact < fresh1.Artifact {
		t.Fatal("reuse leak should not reduce the artifact magnitude")
	}
}

// TestGenerateDeterministicConcurrent has 8 goroutines share one Space,
// sampling overlapping query IDs and generating each through two
// variants, so the memo on a shared *Query is read and appended to
// concurrently (run it under -race). Every image must equal the one a
// fresh Space with the same seed generates.
func TestGenerateDeterministicConcurrent(t *testing.T) {
	newSpace := func() *Space {
		s := NewSpace(stats.NewRNG(12).Stream("space"))
		return s
	}
	light := GenParams{ArtifactBase: 0.3, ArtifactSlope: 6, ArtifactNoise: 0.2, DirSkew: 0.6, DirAxis: 2, Contraction: 0.85, NoiseStd: 0.35}
	heavy := GenParams{ArtifactBase: 0.6, ArtifactSlope: 1.5, ArtifactNoise: 0.2, DirSkew: 0.1, DirAxis: 1, Contraction: 0.95, NoiseStd: 0.3}
	shared := newSpace()
	const workers, ids = 8, 256
	got := make([][ids][2]Image, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			// Worker w walks IDs from its own offset, both variants in
			// an order that depends on w, so every ID is hit by all 8.
			for k := 0; k < ids; k++ {
				id := (k + w*ids/workers) % ids
				q := shared.SampleQuery(id)
				if w%2 == 0 {
					got[w][id][0] = shared.GenerateDeterministic(q, "light", light)
					got[w][id][1] = shared.GenerateDeterministic(q, "heavy", heavy)
				} else {
					got[w][id][1] = shared.GenerateDeterministic(q, "heavy", heavy)
					got[w][id][0] = shared.GenerateDeterministic(q, "light", light)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	fresh := newSpace()
	for id := 0; id < ids; id++ {
		q := fresh.SampleQuery(id)
		want := [2]Image{fresh.GenerateDeterministic(q, "light", light), fresh.GenerateDeterministic(q, "heavy", heavy)}
		for w := 0; w < workers; w++ {
			for v := range want {
				g := got[w][id][v]
				if g.Variant != want[v].Variant || math.Float64bits(g.Artifact) != math.Float64bits(want[v].Artifact) || !sameFeatures(g.Features, want[v].Features) {
					t.Fatalf("worker %d, id %d, variant %s: image differs from a fresh Space's", w, id, want[v].Variant)
				}
			}
		}
	}
}

// TestGenerateDeterministicForeignQuery checks that the memo a query
// carries belongs to the Space that sampled it: another Space (another
// seed) generating the same *Query gets its own image, not the cached
// one, and a query built by hand generates the same bits every time.
func TestGenerateDeterministicForeignQuery(t *testing.T) {
	a := NewSpace(stats.NewRNG(13).Stream("space"))
	b := NewSpace(stats.NewRNG(14).Stream("space"))
	p := GenParams{ArtifactBase: 0.4, ArtifactSlope: 5, ArtifactNoise: 0.3, DirSkew: 0.2, DirAxis: 1, Contraction: 0.9, NoiseStd: 0.4}
	q := a.SampleQuery(5)
	fromA := a.GenerateDeterministic(q, "v", p)
	fromB := b.GenerateDeterministic(q, "v", p)
	want := generateFresh(b, q, p, stats.NewRNG(stats.StreamNSeedFrom(stats.NewRNG(14).Stream("space").Stream("gen:v").Seed(), "q", q.ID)))
	if !sameFeatures(fromB.Features, want.Features) || sameFeatures(fromB.Features, fromA.Features) {
		t.Fatal("a Space generating another Space's query must use its own stream, not the query's memo")
	}
	hand := &Query{ID: 5, Difficulty: q.Difficulty, Truth: q.Truth}
	h1, h2 := a.GenerateDeterministic(hand, "v", p), a.GenerateDeterministic(hand, "v", p)
	if !sameFeatures(h1.Features, fromA.Features) || !sameFeatures(h2.Features, fromA.Features) || len(hand.images) != 0 {
		t.Fatal("a hand-built query must regenerate the sampled query's bits and memoize nothing")
	}
}

func sameFeatures(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestGenerateDeterministicMemoNoDuplicates has 8 goroutines generate
// the same queries through two variants at once. Generation runs
// outside the Space's lock, so two of them can miss the memo together;
// the memo must still end with one image per variant.
func TestGenerateDeterministicMemoNoDuplicates(t *testing.T) {
	s := NewSpace(stats.NewRNG(15).Stream("space"))
	light := GenParams{ArtifactBase: 0.3, ArtifactSlope: 6, ArtifactNoise: 0.2, DirSkew: 0.6, DirAxis: 2, Contraction: 0.85, NoiseStd: 0.35}
	heavy := GenParams{ArtifactBase: 0.6, ArtifactSlope: 1.5, ArtifactNoise: 0.2, DirSkew: 0.1, DirAxis: 1, Contraction: 0.95, NoiseStd: 0.3}
	qs := s.SampleQueries(0, 256)
	const workers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, q := range qs {
				s.GenerateDeterministic(q, "light", light)
				s.GenerateDeterministic(q, "heavy", heavy)
			}
		}()
	}
	close(start)
	wg.Wait()
	for _, q := range qs {
		if len(q.images) != 2 {
			t.Fatalf("query %d memoized %d images, want one per variant", q.ID, len(q.images))
		}
	}
}

// TestGenerateOnceMatchesDeterministic checks that GenerateOnce returns
// GenerateDeterministic's image bit for bit, before and after the memo
// holds it, and leaves nothing memoized on the query.
func TestGenerateOnceMatchesDeterministic(t *testing.T) {
	s := NewSpace(stats.NewRNG(16).Stream("space"))
	p := GenParams{ArtifactBase: 0.4, ArtifactSlope: 5, ArtifactNoise: 0.3, DirSkew: 0.2, DirAxis: 1, Contraction: 0.9, NoiseStd: 0.4}
	for id := 0; id < 64; id++ {
		q := s.SampleQuery(id)
		once := s.GenerateOnce(q, "variantA", p)
		if q.images != nil {
			t.Fatalf("id %d: GenerateOnce memoized %d images", id, len(q.images))
		}
		for _, want := range []Image{s.GenerateDeterministic(q, "variantA", p), s.GenerateDeterministic(q, "variantA", p)} {
			if once.Variant != want.Variant || math.Float64bits(once.Artifact) != math.Float64bits(want.Artifact) {
				t.Fatalf("id %d: GenerateOnce %q/%v, GenerateDeterministic %q/%v", id, once.Variant, once.Artifact, want.Variant, want.Artifact)
			}
			for i := range want.Features {
				if math.Float64bits(once.Features[i]) != math.Float64bits(want.Features[i]) {
					t.Fatalf("id %d: feature[%d] %v, GenerateDeterministic %v", id, i, once.Features[i], want.Features[i])
				}
			}
		}
	}
}
