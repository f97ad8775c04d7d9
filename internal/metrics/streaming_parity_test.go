package metrics

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"diffserve/internal/fid"
	"diffserve/internal/stats"
)

// synthRecords fabricates a mixed population of served, late, dropped,
// and deferred records with feature vectors, in non-sorted arrival
// order (as a simulator emits them).
func synthRecords(seed uint64, n, dim int) []QueryRecord {
	rng := stats.NewRNG(seed)
	recs := make([]QueryRecord, n)
	for i := range recs {
		arrival := rng.Uniform(0, 100)
		r := QueryRecord{
			ID:       i,
			Arrival:  arrival,
			Deadline: arrival + 5,
		}
		switch {
		case rng.Bernoulli(0.1):
			r.Dropped = true
		default:
			r.Completion = arrival + rng.Uniform(0.1, 7)
			r.Deferred = rng.Bernoulli(0.4)
			r.ServedBy = "v"
			r.Features = rng.NormalVec(nil, dim, 0.2, 1.1)
		}
		recs[i] = r
	}
	return recs
}

// batchSummarize recomputes the summary the way the pre-streaming
// Collector did: full scans over the records.
func batchSummarize(recs []QueryRecord, ref *fid.Reference) Summary {
	s := Summary{Queries: len(recs), FID: math.NaN()}
	var feats [][]float64
	var lats []float64
	served, deferred, violated, dropped := 0, 0, 0, 0
	for _, r := range recs {
		if r.Violated() {
			violated++
		}
		if r.Dropped {
			dropped++
			continue
		}
		served++
		if r.Deferred {
			deferred++
		}
		lats = append(lats, r.Completion-r.Arrival)
		if r.Features != nil {
			feats = append(feats, r.Features)
		}
	}
	if len(recs) > 0 {
		s.ViolationRatio = float64(violated) / float64(len(recs))
		s.DropRatio = float64(dropped) / float64(len(recs))
	}
	if served > 0 {
		s.DeferRatio = float64(deferred) / float64(served)
	}
	s.MeanLatency = stats.Mean(lats)
	s.P99Latency = stats.Quantile(lats, 0.99)
	if ref != nil && len(feats) >= 2 {
		if v, err := ref.Score(feats); err == nil {
			s.FID = v
		}
	}
	return s
}

// batchTimeline is the pre-streaming Timeline implementation
// (sort-and-rescan) kept as a reference oracle.
func batchTimeline(recs []QueryRecord, bucketSecs float64, ref *fid.Reference, minFIDSamples int) ([]Bucket, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	if minFIDSamples <= 0 {
		minFIDSamples = 32
	}
	sorted := append([]QueryRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Arrival < sorted[j].Arrival })
	last := sorted[len(sorted)-1].Arrival
	n := int(last/bucketSecs) + 1
	buckets := make([]Bucket, n)
	feats := make([][][]float64, n)
	type counts struct{ arrivals, served, missed, deferred int }
	cs := make([]counts, n)
	for _, r := range sorted {
		i := int(r.Arrival / bucketSecs)
		c := &cs[i]
		c.arrivals++
		if !r.Dropped {
			c.served++
		}
		if r.Dropped || r.Late() {
			c.missed++
		}
		if !r.Dropped && r.Features != nil {
			feats[i] = append(feats[i], r.Features)
			if r.Deferred {
				c.deferred++
			}
		}
	}
	for i := range buckets {
		b, c := &buckets[i], cs[i]
		b.Start = float64(i) * bucketSecs
		b.DemandQPS = float64(c.arrivals) / bucketSecs
		if c.arrivals > 0 {
			b.ViolationRatio = float64(c.missed) / float64(c.arrivals)
		}
		if c.served > 0 {
			b.DeferRatio = float64(c.deferred) / float64(c.served)
		}
		b.FID = math.NaN()
		if ref != nil && len(feats[i]) >= minFIDSamples {
			v, err := ref.Score(feats[i])
			if err != nil {
				return nil, err
			}
			b.FID = v
		}
	}
	return buckets, nil
}

func closeOrBothNaN(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

// TestStreamingSummarizeMatchesBatch checks the streaming Collector
// against full-scan recomputation on synthetic populations.
func TestStreamingSummarizeMatchesBatch(t *testing.T) {
	const dim = 16
	ref := fid.ExactReference(dim)
	for _, n := range []int{0, 1, 5, 900} {
		c := NewCollector()
		recs := synthRecords(uint64(n)+3, n, dim)
		for _, r := range recs {
			c.Record(r)
		}
		got := c.Summarize(ref)
		want := batchSummarize(recs, ref)
		if got.Queries != want.Queries {
			t.Fatalf("n=%d: queries %d vs %d", n, got.Queries, want.Queries)
		}
		// Counter-based ratios must be exactly equal; the FID may
		// differ by streaming-vs-batch floating-point noise only.
		if got.ViolationRatio != want.ViolationRatio || got.DropRatio != want.DropRatio || got.DeferRatio != want.DeferRatio {
			t.Errorf("n=%d: ratios %+v vs %+v", n, got, want)
		}
		if !closeOrBothNaN(got.MeanLatency, want.MeanLatency, 0) {
			t.Errorf("n=%d: mean latency %v vs %v", n, got.MeanLatency, want.MeanLatency)
		}
		if !closeOrBothNaN(got.P99Latency, want.P99Latency, 0) {
			t.Errorf("n=%d: p99 latency %v vs %v", n, got.P99Latency, want.P99Latency)
		}
		if !closeOrBothNaN(got.FID, want.FID, 1e-9) {
			t.Errorf("n=%d: FID %v vs %v", n, got.FID, want.FID)
		}
	}
}

// TestStreamingTimelineMatchesBatch checks the incrementally
// maintained timeline against the sort-and-rescan oracle, including
// interleaving Timeline calls with further Records and switching
// bucket widths.
func TestStreamingTimelineMatchesBatch(t *testing.T) {
	const dim = 16
	ref := fid.ExactReference(dim)
	recs := synthRecords(42, 1200, dim)
	c := NewCollector()
	half := len(recs) / 2
	for _, r := range recs[:half] {
		c.Record(r)
	}

	check := func(label string, width float64, minSamples int, upto int) {
		t.Helper()
		got, err := c.Timeline(width, ref, minSamples)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := batchTimeline(recs[:upto], width, ref, minSamples)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d buckets vs %d", label, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Start != w.Start || g.DemandQPS != w.DemandQPS ||
				g.ViolationRatio != w.ViolationRatio || g.DeferRatio != w.DeferRatio {
				t.Fatalf("%s: bucket %d stats %+v vs %+v", label, i, g, w)
			}
			if !closeOrBothNaN(g.FID, w.FID, 1e-9) {
				t.Fatalf("%s: bucket %d FID %v vs %v", label, i, g.FID, w.FID)
			}
		}
	}

	check("first half", 10, 20, half)
	// Record more after the first Timeline call: the bucket state must
	// update incrementally.
	for _, r := range recs[half:] {
		c.Record(r)
	}
	check("full incremental", 10, 20, len(recs))
	// Width change triggers a rebuild.
	check("rebucketed", 7, 20, len(recs))
	// And back.
	check("re-rebucketed", 10, 20, len(recs))
}

// TestInconsistentFeatureDimsSurfaceAsError checks that a feature
// dimension mismatch seen at Record time surfaces as an error from
// FID and Timeline (as the batch moments path used to report) rather
// than a panic.
func TestInconsistentFeatureDimsSurfaceAsError(t *testing.T) {
	ref := fid.ExactReference(4)
	c := NewCollector()
	c.Record(QueryRecord{ID: 0, Arrival: 0, Completion: 1, Deadline: 5, Features: []float64{1, 2, 3, 4}})
	c.Record(QueryRecord{ID: 1, Arrival: 1, Completion: 2, Deadline: 6, Features: []float64{1, 2}})
	c.Record(QueryRecord{ID: 2, Arrival: 2, Completion: 3, Deadline: 7, Features: []float64{4, 3, 2, 1}})
	if _, err := c.FID(ref); err == nil {
		t.Fatal("FID should report inconsistent feature dims")
	}
	if _, err := c.Timeline(10, ref, 1); err == nil {
		t.Fatal("Timeline should report inconsistent feature dims")
	}
	// Without a reference, the timeline's count statistics remain
	// available.
	buckets, err := c.Timeline(10, nil, 1)
	if err != nil || len(buckets) == 0 {
		t.Fatalf("ref-less timeline: %v %v", buckets, err)
	}
	if buckets[0].DemandQPS != 0.3 {
		t.Fatalf("demand = %v, want 3 arrivals over 10 s", buckets[0].DemandQPS)
	}
}

// TestTimelineParallelMatchesSerial checks the timeline's parallel
// FID scoring against a serial loop: at GOMAXPROCS 1, 2 and 8 each
// bucket's FID equals, bit for bit, ref.ScoreMoments on that bucket's
// moments, NaN below minFIDSamples; and when buckets fail, the error
// is the first failing bucket's in bucket order.
func TestTimelineParallelMatchesSerial(t *testing.T) {
	const dim, width, minSamples = 16, 5, 135
	ref := fid.ExactReference(dim)
	c := NewCollector()
	for _, r := range synthRecords(43, 3000, dim) {
		c.Record(r)
	}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := c.Timeline(width, ref, minSamples)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		scored, skipped := 0, 0
		for i, b := range got {
			acc := c.buckets[i].acc
			if acc == nil || acc.Count() < minSamples {
				if !math.IsNaN(b.FID) {
					t.Fatalf("GOMAXPROCS %d: bucket %d is below %d samples but FID %v", procs, i, minSamples, b.FID)
				}
				skipped++
				continue
			}
			want, err := ref.ScoreMoments(acc)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(b.FID) != math.Float64bits(want) {
				t.Fatalf("GOMAXPROCS %d: bucket %d FID %v, serial %v", procs, i, b.FID, want)
			}
			scored++
		}
		if scored == 0 || skipped == 0 {
			t.Fatalf("GOMAXPROCS %d: %d buckets scored and %d skipped; the fixture must have both", procs, scored, skipped)
		}
	}

	// Two kinds of failing bucket: one with a single sample (too few
	// for moments once minFIDSamples is 1) and one whose NaN feature
	// stops the eigensolver. Whichever comes first must be reported.
	served := func(c *Collector, at float64, f []float64) {
		c.Record(QueryRecord{Arrival: at, Completion: at + 1, Deadline: at + 5, Features: f})
	}
	rng := stats.NewRNG(44)
	fill := func(c *Collector, bucket int, kind string) {
		at := float64(bucket) * width
		switch kind {
		case "ok":
			for k := 0; k < 40; k++ {
				served(c, at, rng.NormalVec(nil, dim, 0, 1))
			}
		case "single":
			served(c, at, rng.NormalVec(nil, dim, 0, 1))
		case "nan":
			for k := 0; k < 40; k++ {
				f := rng.NormalVec(nil, dim, 0, 1)
				if k == 7 {
					f[3] = math.NaN()
				}
				served(c, at, f)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, order := range [][]string{
		{"ok", "ok", "single", "ok", "nan", "ok"},
		{"ok", "nan", "ok", "ok", "single", "ok"},
	} {
		c := NewCollector()
		first := -1
		for i, kind := range order {
			fill(c, i, kind)
			if first < 0 && kind != "ok" {
				first = i
			}
		}
		_, err := c.Timeline(width, ref, 1)
		_, want := ref.ScoreMoments(c.buckets[first].acc)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("buckets %v: error %v, want bucket %d's %v", order, err, first, want)
		}
	}
}
