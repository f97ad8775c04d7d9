package stats

import (
	"math"
	"sort"
)

// Welford accumulates streaming mean and variance using Welford's
// numerically stable online algorithm. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates a new observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of observations seen.
func (w *Welford) Count() int { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than
// two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// PopVariance returns the population (biased) variance.
func (w *Welford) PopVariance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Merge combines another accumulator into this one (parallel Welford).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// EWMA is an exponentially weighted moving average.
// The zero value is invalid; use NewEWMA.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1].
// Larger alpha weights recent observations more heavily.
// It panics if alpha is outside (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha must be in (0, 1]")
	}
	return &EWMA{alpha: alpha}
}

// Add incorporates a new observation and returns the updated average.
// The first observation initializes the average directly.
func (e *EWMA) Add(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one observation has been added.
func (e *EWMA) Initialized() bool { return e.init }

// Reset clears the average.
func (e *EWMA) Reset() { e.value, e.init = 0, false }

// Quantile returns the q-quantile (q in [0, 1]) of xs using linear
// interpolation between order statistics. It returns NaN for an empty
// slice. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return Min(xs)
	}
	if q >= 1 {
		return Max(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the minimum of xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// CDF represents an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the samples. The input is copied.
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x) under the empirical distribution.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, x)
	// Advance past equal values so At is right-continuous.
	for i < len(c.sorted) && c.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// InverseAt returns the q-quantile of the empirical distribution.
func (c *CDF) InverseAt(q float64) float64 { return Quantile(c.sorted, q) }

// Len returns the number of samples underlying the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// Points returns (x, P(X<=x)) pairs suitable for plotting the CDF with
// at most n points, evenly spaced over the sample indices.
func (c *CDF) Points(n int) (xs, ps []float64) {
	if len(c.sorted) == 0 || n <= 0 {
		return nil, nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / maxInt(n-1, 1)
		xs[i] = c.sorted[idx]
		ps[i] = float64(idx+1) / float64(len(c.sorted))
	}
	return xs, ps
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Histogram is a fixed-bin histogram over [lo, hi).
type Histogram struct {
	lo, hi   float64
	counts   []int
	under    int
	over     int
	total    int
	binWidth float64
}

// NewHistogram returns a histogram with bins equal-width bins over
// [lo, hi). It panics if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: histogram needs bins > 0")
	}
	if hi <= lo {
		panic("stats: histogram needs hi > lo")
	}
	return &Histogram{lo: lo, hi: hi, counts: make([]int, bins), binWidth: (hi - lo) / float64(bins)}
}

// Add records an observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / h.binWidth)
		if i >= len(h.counts) { // guard float rounding at the upper edge
			i = len(h.counts) - 1
		}
		h.counts[i]++
	}
}

// Count returns the count in bin i.
func (h *Histogram) Count(i int) int { return h.counts[i] }

// Total returns the total number of observations including out-of-range.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the center x-value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.lo + (float64(i)+0.5)*h.binWidth
}

// Fraction returns the fraction of all observations landing in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}
