// Package model provides the diffusion-model variant registry used by
// the DiffServe reproduction: per-variant execution-latency profiles
// (batch size → seconds, taken from the paper's reported A100-80GB
// measurements) and the generative feature-space parameters calibrated
// so each variant's standalone FID matches the paper's figures.
package model

import (
	"fmt"
	"sort"
)

// Profile is an execution-latency profile: measured wall-clock seconds
// to execute one batch at each profiled batch size. Between profiled
// points the latency is linearly interpolated; beyond the largest
// profiled batch it is linearly extrapolated from the last segment.
type Profile struct {
	batchSizes []int
	latency    []float64
}

// NewProfile constructs a profile from parallel slices of batch sizes
// and batch execution latencies (seconds). Batch sizes must be
// strictly increasing and positive; latencies must be positive and
// non-decreasing.
func NewProfile(batchSizes []int, latency []float64) (*Profile, error) {
	if len(batchSizes) == 0 || len(batchSizes) != len(latency) {
		return nil, fmt.Errorf("model: profile needs equal-length non-empty slices")
	}
	for i := range batchSizes {
		if batchSizes[i] <= 0 {
			return nil, fmt.Errorf("model: batch size must be positive, got %d", batchSizes[i])
		}
		if latency[i] <= 0 {
			return nil, fmt.Errorf("model: latency must be positive, got %v", latency[i])
		}
		if i > 0 {
			if batchSizes[i] <= batchSizes[i-1] {
				return nil, fmt.Errorf("model: batch sizes must be strictly increasing")
			}
			if latency[i] < latency[i-1] {
				return nil, fmt.Errorf("model: latency must be non-decreasing in batch size")
			}
		}
	}
	return &Profile{
		batchSizes: append([]int(nil), batchSizes...),
		latency:    append([]float64(nil), latency...),
	}, nil
}

// LinearProfile builds a profile with the common affine batch-scaling
// law e(b) = base * (overhead + (1-overhead)*b), profiled at the given
// batch sizes. base is the batch-1 latency; overhead in [0, 1) is the
// fraction of batch-1 time that is fixed setup cost.
func LinearProfile(base, overhead float64, batchSizes []int) (*Profile, error) {
	if base <= 0 {
		return nil, fmt.Errorf("model: base latency must be positive")
	}
	if overhead < 0 || overhead >= 1 {
		return nil, fmt.Errorf("model: overhead must be in [0, 1)")
	}
	lat := make([]float64, len(batchSizes))
	for i, b := range batchSizes {
		lat[i] = base * (overhead + (1-overhead)*float64(b))
	}
	return NewProfile(batchSizes, lat)
}

// StandardBatchSizes is the batch-size grid profiled for every variant
// and searched by the resource allocator.
var StandardBatchSizes = []int{1, 2, 4, 8, 16, 32}

// MaxBatch returns the largest profiled batch size.
func (p *Profile) MaxBatch() int { return p.batchSizes[len(p.batchSizes)-1] }

// Latency returns the execution latency (seconds) for a batch of size
// b, interpolating between profiled points. It panics if b <= 0.
func (p *Profile) Latency(b int) float64 {
	if b <= 0 {
		panic("model: batch size must be positive")
	}
	bs := p.batchSizes
	if b <= bs[0] {
		// Scale down proportionally below the smallest profiled batch.
		return p.latency[0] * float64(b) / float64(bs[0])
	}
	i := sort.SearchInts(bs, b)
	if i < len(bs) && bs[i] == b {
		return p.latency[i]
	}
	if i >= len(bs) {
		// Extrapolate from the final segment's marginal cost.
		n := len(bs)
		var slope float64
		if n >= 2 {
			slope = (p.latency[n-1] - p.latency[n-2]) / float64(bs[n-1]-bs[n-2])
		} else {
			slope = p.latency[0] / float64(bs[0])
		}
		return p.latency[n-1] + slope*float64(b-bs[n-1])
	}
	// Interpolate between points i-1 and i.
	lo, hi := bs[i-1], bs[i]
	frac := float64(b-lo) / float64(hi-lo)
	return p.latency[i-1] + frac*(p.latency[i]-p.latency[i-1])
}

// Throughput returns the steady-state throughput (queries per second)
// of one worker running batches of size b back-to-back.
func (p *Profile) Throughput(b int) float64 {
	return float64(b) / p.Latency(b)
}

// BestBatchWithin returns the largest profiled batch size whose
// execution latency does not exceed budget, and true; or 0 and false
// when even batch 1 exceeds the budget.
func (p *Profile) BestBatchWithin(budget float64) (int, bool) {
	best := 0
	for _, b := range p.batchSizes {
		if p.Latency(b) <= budget {
			best = b
		}
	}
	if best == 0 {
		return 0, false
	}
	return best, true
}
