// Package metrics collects per-query serving records and aggregates
// them into the two headline statistics of the paper's evaluation —
// response quality (FID of served images against the ground-truth
// set) and SLO violation ratio (late or dropped queries) — plus
// time-bucketed series for the timeline figures.
package metrics

import (
	"fmt"
	"math"
	"slices"

	"diffserve/internal/fid"
	"diffserve/internal/parallel"
	"diffserve/internal/stats"
)

// QueryRecord is the outcome of one query.
type QueryRecord struct {
	ID         int
	Arrival    float64
	Completion float64 // meaningful only when !Dropped
	Deadline   float64 // arrival + SLO
	Dropped    bool
	Deferred   bool    // served by the heavy model after cascading
	ServedBy   string  // variant name; empty when dropped
	Confidence float64 // discriminator confidence of the light image
	Features   []float64
	Artifact   float64
}

// Late reports whether the query completed after its deadline.
func (r QueryRecord) Late() bool { return !r.Dropped && r.Completion > r.Deadline }

// Violated reports whether the query counts as an SLO violation
// (dropped or late), the paper's definition.
func (r QueryRecord) Violated() bool { return r.Dropped || r.Late() }

// Tally is the part of a Collector whose size does not grow with the
// run: how many queries resolved and the streaming moments of the
// served images' features. A record's features are folded in at Record
// time and not retained.
type Tally struct {
	n   int
	acc *stats.MomentAccumulator // features of completed queries
	// dimErr records an inconsistent feature dimensionality seen at
	// Record time; FID and Timeline surface it as an error, matching
	// the pre-streaming behavior of the batch moments path.
	dimErr error
}

// Record counts a query outcome and folds a served query's features
// into the moments.
func (t *Tally) Record(r QueryRecord) {
	t.n++
	if r.Dropped || r.Features == nil {
		return
	}
	if t.acc == nil {
		t.acc = stats.NewMomentAccumulator(len(r.Features))
	}
	if len(r.Features) == t.acc.Dim() {
		t.acc.Add(r.Features)
	} else if t.dimErr == nil {
		t.dimErr = fmt.Errorf("metrics: inconsistent feature dims %d vs %d", len(r.Features), t.acc.Dim())
	}
}

// Len returns the number of recorded queries.
func (t *Tally) Len() int { return t.n }

// ServedMoments returns the streaming moment accumulator of all
// completed-query features (nil when no features were recorded).
// Treat as read-only.
func (t *Tally) ServedMoments() *stats.MomentAccumulator { return t.acc }

// Collector accumulates query records. All headline statistics are
// maintained incrementally at Record time (streaming moments for FID,
// counters for ratios), so Summarize, FID, and Timeline are cheap
// finalizations rather than re-scans of every record.
type Collector struct {
	records []QueryRecord

	// Streaming per-run state.
	Tally
	violated int
	dropped  int
	served   int // completed (not dropped)
	deferred int // completed and served by the heavy model
	latSum   float64
	lats     []float64 // completed-query latencies, record order

	// Streaming per-bucket state for Timeline, keyed to a bucket
	// width: built lazily on the first Timeline call and maintained
	// incrementally by Record afterwards.
	bucketSecs float64
	buckets    []bucketAcc

	// featSlab is the append-only arena backing InternFeatures copies.
	// Slabs are never shrunk or recycled while the collector lives, so
	// an interned slice stays valid (and immutable, by convention) for
	// the collector's lifetime even after the slab rolls over.
	featSlab []float64
}

// bucketAcc is the streaming state of one timeline bucket.
type bucketAcc struct {
	arrivals, served, dropped, late int
	// deferredServed counts completed-with-features deferred queries
	// (the timeline DeferRatio numerator).
	deferredServed int
	acc            *stats.MomentAccumulator
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record appends a query outcome and folds it into the streaming
// aggregates.
func (c *Collector) Record(r QueryRecord) {
	c.records = append(c.records, r)
	c.Tally.Record(r)
	if r.Violated() {
		c.violated++
	}
	if r.Dropped {
		c.dropped++
	} else {
		c.served++
		if r.Deferred {
			c.deferred++
		}
		lat := r.Completion - r.Arrival
		c.latSum += lat
		c.lats = append(c.lats, lat)
	}
	if c.bucketSecs > 0 {
		c.bucketAdd(r)
	}
}

// featSlabSize is the float capacity of one arena slab. One slab
// serves ~4k 16-dim feature vectors before the next allocation, so
// interning is allocation-free in steady state.
const featSlabSize = 1 << 16

// InternFeatures copies f into the collector's append-only feature
// arena and returns the copy. The returned slice is owned by the
// collector, valid for its lifetime, and must be treated as
// immutable; the caller's slice is not retained and may be reused or
// recycled immediately. The cluster harness interns each polled
// result's features before recording it, so the response it polls
// into can be reused by the next poll.
func (c *Collector) InternFeatures(f []float64) []float64 {
	if f == nil {
		return nil
	}
	if len(c.featSlab)+len(f) > cap(c.featSlab) {
		sz := featSlabSize
		if len(f) > sz {
			sz = len(f)
		}
		// Earlier interned slices keep referencing the old slab; it is
		// simply abandoned to them.
		c.featSlab = make([]float64, 0, sz)
	}
	start := len(c.featSlab)
	c.featSlab = append(c.featSlab, f...)
	return c.featSlab[start:len(c.featSlab):len(c.featSlab)]
}

// Merge folds every record of other into c by replaying them through
// Record, so the streaming aggregates (counters, moments, lazily
// built timeline buckets) stay consistent with the merged record set.
// The benchmark's replay uses it to combine its windows' collectors
// into one run-level view; other must not be recording concurrently.
func (c *Collector) Merge(other *Collector) {
	c.Grow(len(other.records))
	for _, r := range other.records {
		c.Record(r)
	}
}

// Grow reserves room for n more records, so a caller that knows how
// many queries it will record pays for no reallocation on the way.
func (c *Collector) Grow(n int) {
	c.records = slices.Grow(c.records, n)
	c.lats = slices.Grow(c.lats, n)
}

// Records returns the raw records (not copied; treat as read-only).
func (c *Collector) Records() []QueryRecord { return c.records }

// SLOViolationRatio returns the fraction of queries dropped or late.
func (c *Collector) SLOViolationRatio() float64 {
	if len(c.records) == 0 {
		return 0
	}
	return float64(c.violated) / float64(len(c.records))
}

// DropRatio returns the fraction of queries dropped.
func (c *Collector) DropRatio() float64 {
	if len(c.records) == 0 {
		return 0
	}
	return float64(c.dropped) / float64(len(c.records))
}

// DeferRatio returns the fraction of completed queries served by the
// heavy model.
func (c *Collector) DeferRatio() float64 {
	if c.served == 0 {
		return 0
	}
	return float64(c.deferred) / float64(c.served)
}

// FID computes the response-quality FID of all served images against
// the reference from the streamed moments. It returns an error when
// fewer than two images were served.
func (c *Collector) FID(ref *fid.Reference) (float64, error) {
	if c.dimErr != nil {
		return 0, c.dimErr
	}
	n := 0
	if c.acc != nil {
		n = c.acc.Count()
	}
	if n < 2 {
		return 0, fmt.Errorf("metrics: %d served images, need >= 2 for FID", n)
	}
	return ref.ScoreMoments(c.acc)
}

// LatencyQuantile returns the q-quantile of completed-query latency.
func (c *Collector) LatencyQuantile(q float64) float64 {
	return stats.Quantile(c.lats, q)
}

// MeanLatency returns the mean completed-query latency.
func (c *Collector) MeanLatency() float64 {
	if c.served == 0 {
		return math.NaN()
	}
	return c.latSum / float64(c.served)
}

// Bucket is one time window of the serving timeline.
type Bucket struct {
	Start float64
	// DemandQPS is arrivals divided by bucket width.
	DemandQPS float64
	// ViolationRatio is (dropped+late)/arrivals, 0 when no arrivals.
	ViolationRatio float64
	// FID of images served in the bucket; NaN when fewer than the
	// minimum sample count completed.
	FID float64
	// DeferRatio is the fraction of the bucket's served queries that
	// were deferred to the heavy model.
	DeferRatio float64
}

// bucketAdd folds one record into the streaming bucket state. Bucket
// assignment needs only the arrival index, so no global sort of the
// records is ever required.
func (c *Collector) bucketAdd(r QueryRecord) {
	i := int(r.Arrival / c.bucketSecs)
	for len(c.buckets) <= i {
		c.buckets = append(c.buckets, bucketAcc{})
	}
	b := &c.buckets[i]
	b.arrivals++
	switch {
	case r.Dropped:
		b.dropped++
	case r.Late():
		b.late++
		b.served++
	default:
		b.served++
	}
	if !r.Dropped && r.Features != nil {
		if b.acc == nil {
			b.acc = stats.NewMomentAccumulator(len(r.Features))
		}
		if len(r.Features) == b.acc.Dim() {
			b.acc.Add(r.Features)
		} else if c.dimErr == nil {
			c.dimErr = fmt.Errorf("metrics: inconsistent feature dims %d vs %d", len(r.Features), b.acc.Dim())
		}
		if r.Deferred {
			b.deferredServed++
		}
	}
}

// ensureBuckets (re)builds the streaming bucket state for the given
// width. After the first call, Record maintains it incrementally; a
// Timeline call with a different width triggers one rebuild.
func (c *Collector) ensureBuckets(bucketSecs float64) {
	if c.bucketSecs == bucketSecs && c.buckets != nil {
		return
	}
	c.bucketSecs = bucketSecs
	c.buckets = c.buckets[:0]
	for _, r := range c.records {
		c.bucketAdd(r)
	}
}

// Timeline aggregates records into fixed-width buckets by arrival
// time. ref may be nil to skip FID computation. minFIDSamples guards
// against meaningless small-sample FIDs (default 32 when <= 0).
func (c *Collector) Timeline(bucketSecs float64, ref *fid.Reference, minFIDSamples int) ([]Bucket, error) {
	if bucketSecs <= 0 {
		return nil, fmt.Errorf("metrics: bucketSecs must be positive")
	}
	if len(c.records) == 0 {
		return nil, nil
	}
	if minFIDSamples <= 0 {
		minFIDSamples = 32
	}
	c.ensureBuckets(bucketSecs)
	if ref != nil && c.dimErr != nil {
		return nil, c.dimErr
	}
	// Each bucket's FID is a pure function of its moments, so the
	// buckets are scored in parallel; Map returns the first error in
	// bucket order, as a serial loop would.
	fids, err := parallel.Map(len(c.buckets), func(i int) (float64, error) {
		ba := &c.buckets[i]
		if ref == nil || ba.acc == nil || ba.acc.Count() < minFIDSamples {
			return math.NaN(), nil
		}
		return ref.ScoreMoments(ba.acc)
	})
	if err != nil {
		return nil, err
	}
	buckets := make([]Bucket, len(c.buckets))
	for i := range c.buckets {
		ba := &c.buckets[i]
		b := &buckets[i]
		b.Start = float64(i) * bucketSecs
		b.DemandQPS = float64(ba.arrivals) / bucketSecs
		if ba.arrivals > 0 {
			b.ViolationRatio = float64(ba.dropped+ba.late) / float64(ba.arrivals)
		}
		if ba.served > 0 {
			b.DeferRatio = float64(ba.deferredServed) / float64(ba.served)
		}
		b.FID = fids[i]
	}
	return buckets, nil
}

// Summary is a compact end-to-end result for comparison tables.
type Summary struct {
	Queries        int
	FID            float64
	ViolationRatio float64
	DropRatio      float64
	DeferRatio     float64
	MeanLatency    float64
	P99Latency     float64
}

// Summarize computes the end-to-end summary. FID is NaN when not
// computable.
func (c *Collector) Summarize(ref *fid.Reference) Summary {
	s := Summary{
		Queries:        c.Len(),
		ViolationRatio: c.SLOViolationRatio(),
		DropRatio:      c.DropRatio(),
		DeferRatio:     c.DeferRatio(),
		MeanLatency:    c.MeanLatency(),
		P99Latency:     c.LatencyQuantile(0.99),
		FID:            math.NaN(),
	}
	if ref != nil {
		if v, err := c.FID(ref); err == nil {
			s.FID = v
		}
	}
	return s
}
