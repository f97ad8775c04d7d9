package metrics

import (
	"math"
	"testing"

	"diffserve/internal/fid"
	"diffserve/internal/stats"
)

func TestQueryRecordPredicates(t *testing.T) {
	onTime := QueryRecord{Arrival: 0, Completion: 3, Deadline: 5}
	if onTime.Late() || onTime.Violated() {
		t.Error("on-time record misclassified")
	}
	late := QueryRecord{Arrival: 0, Completion: 6, Deadline: 5}
	if !late.Late() || !late.Violated() {
		t.Error("late record misclassified")
	}
	dropped := QueryRecord{Dropped: true, Deadline: 5}
	if dropped.Late() {
		t.Error("dropped records are not late")
	}
	if !dropped.Violated() {
		t.Error("dropped records violate the SLO")
	}
}

func TestCollectorRatios(t *testing.T) {
	c := NewCollector()
	if c.SLOViolationRatio() != 0 || c.DropRatio() != 0 || c.DeferRatio() != 0 {
		t.Error("empty collector ratios should be 0")
	}
	feats := []float64{1, 2}
	c.Record(QueryRecord{Arrival: 0, Completion: 1, Deadline: 5, Features: feats})
	c.Record(QueryRecord{Arrival: 0, Completion: 9, Deadline: 5, Features: feats, Deferred: true})
	c.Record(QueryRecord{Dropped: true, Deadline: 5})
	c.Record(QueryRecord{Arrival: 0, Completion: 2, Deadline: 5, Features: feats, Deferred: true})

	if got := c.SLOViolationRatio(); got != 0.5 {
		t.Errorf("violation ratio = %v, want 0.5", got)
	}
	if got := c.DropRatio(); got != 0.25 {
		t.Errorf("drop ratio = %v, want 0.25", got)
	}
	if got := c.DeferRatio(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("defer ratio = %v, want 2/3", got)
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d", c.Len())
	}
	if n := c.ServedMoments().Count(); n != 3 {
		t.Errorf("served features = %d", n)
	}
}

func TestCollectorLatencyStats(t *testing.T) {
	c := NewCollector()
	for i, lat := range []float64{1, 2, 3, 4} {
		c.Record(QueryRecord{ID: i, Arrival: 0, Completion: lat, Deadline: 10})
	}
	c.Record(QueryRecord{Dropped: true})
	if got := c.MeanLatency(); got != 2.5 {
		t.Errorf("mean latency = %v", got)
	}
	if got := c.LatencyQuantile(0.5); got != 2.5 {
		t.Errorf("median latency = %v", got)
	}
}

func TestCollectorFID(t *testing.T) {
	rng := stats.NewRNG(1)
	dim := 4
	ref := fid.ExactReference(dim)
	c := NewCollector()
	if _, err := c.FID(ref); err == nil {
		t.Error("FID with no served images should fail")
	}
	for i := 0; i < 1000; i++ {
		c.Record(QueryRecord{
			ID: i, Arrival: 0, Completion: 1, Deadline: 5,
			Features: rng.NormalVec(nil, dim, 0, 1),
		})
	}
	v, err := c.FID(ref)
	if err != nil {
		t.Fatal(err)
	}
	if v > 0.5 {
		t.Errorf("FID of reference-matching sample = %v, want near 0", v)
	}
}

func TestTimelineBuckets(t *testing.T) {
	c := NewCollector()
	// Bucket 0: two served (one late), one dropped. Bucket 2: one served.
	c.Record(QueryRecord{ID: 0, Arrival: 1, Completion: 2, Deadline: 6, Features: []float64{0, 0}})
	c.Record(QueryRecord{ID: 1, Arrival: 5, Completion: 20, Deadline: 10, Features: []float64{1, 1}, Deferred: true})
	c.Record(QueryRecord{ID: 2, Arrival: 8, Dropped: true, Deadline: 13})
	c.Record(QueryRecord{ID: 3, Arrival: 25, Completion: 26, Deadline: 30, Features: []float64{2, 2}})

	buckets, err := c.Timeline(10, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d, want 3", len(buckets))
	}
	b0 := buckets[0]
	if b0.Arrivals != 3 || b0.Served != 2 || b0.Dropped != 1 || b0.Late != 1 {
		t.Errorf("bucket 0 = %+v", b0)
	}
	if math.Abs(b0.ViolationRatio-2.0/3) > 1e-12 {
		t.Errorf("bucket 0 violation = %v", b0.ViolationRatio)
	}
	if b0.DemandQPS != 0.3 {
		t.Errorf("bucket 0 demand = %v", b0.DemandQPS)
	}
	if math.Abs(b0.DeferRatio-0.5) > 1e-12 {
		t.Errorf("bucket 0 defer = %v", b0.DeferRatio)
	}
	if buckets[1].Arrivals != 0 {
		t.Errorf("bucket 1 should be empty")
	}
	if buckets[2].Served != 1 {
		t.Errorf("bucket 2 = %+v", buckets[2])
	}
	// FID skipped (below sample minimum): NaN.
	if !math.IsNaN(b0.FID) {
		t.Errorf("bucket FID should be NaN without reference")
	}
}

func TestTimelineWithFID(t *testing.T) {
	rng := stats.NewRNG(2)
	dim := 3
	ref := fid.ExactReference(dim)
	c := NewCollector()
	for i := 0; i < 200; i++ {
		c.Record(QueryRecord{
			ID: i, Arrival: float64(i) * 0.01, Completion: float64(i)*0.01 + 1,
			Deadline: float64(i)*0.01 + 5, Features: rng.NormalVec(nil, dim, 0, 1),
		})
	}
	buckets, err := c.Timeline(10, ref, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 1 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if math.IsNaN(buckets[0].FID) {
		t.Error("bucket FID should be computed with 200 >= 50 samples")
	}
}

func TestTimelineErrors(t *testing.T) {
	c := NewCollector()
	if _, err := c.Timeline(0, nil, 0); err == nil {
		t.Error("zero bucket width should fail")
	}
	bs, err := c.Timeline(10, nil, 0)
	if err != nil || bs != nil {
		t.Error("empty collector timeline should be nil, nil")
	}
}

func TestSummarize(t *testing.T) {
	rng := stats.NewRNG(3)
	ref := fid.ExactReference(2)
	c := NewCollector()
	for i := 0; i < 100; i++ {
		c.Record(QueryRecord{
			ID: i, Arrival: 0, Completion: 1, Deadline: 5,
			Features: rng.NormalVec(nil, 2, 0, 1),
		})
	}
	s := c.Summarize(ref)
	if s.Queries != 100 || s.ViolationRatio != 0 || math.IsNaN(s.FID) {
		t.Errorf("summary = %+v", s)
	}
	// Without a reference the FID is NaN but everything else works.
	s2 := c.Summarize(nil)
	if !math.IsNaN(s2.FID) {
		t.Error("FID without reference should be NaN")
	}
}
