// Package trace provides query-arrival workloads for the DiffServe
// experiments: constant and stepped synthetic traces, an Azure
// Functions-like diurnal trace generator, the paper's shape-preserving
// min/max scaling transformation, Poisson arrival synthesis, and the
// artifact's trace_{A}to{B}qps.txt file format.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"diffserve/internal/stats"
)

// Trace is a piecewise-constant query-rate series: Rates[i] is the
// demand in queries per second during [i*Interval, (i+1)*Interval).
type Trace struct {
	// Interval is the duration of each rate step in seconds.
	Interval float64
	// Rates holds the demand (QPS) for each step.
	Rates []float64
}

// New constructs a trace, validating its fields.
func New(interval float64, rates []float64) (*Trace, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("trace: interval must be positive, got %v", interval)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("trace: need at least one rate step")
	}
	for i, r := range rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("trace: invalid rate %v at step %d", r, i)
		}
	}
	return &Trace{Interval: interval, Rates: append([]float64(nil), rates...)}, nil
}

// Static returns a constant-rate trace of the given duration.
func Static(qps, duration, interval float64) (*Trace, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("trace: duration must be positive")
	}
	n := int(math.Ceil(duration / interval))
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = qps
	}
	return New(interval, rates)
}

// AzureLike generates a diurnal, bursty demand shape resembling the
// Microsoft Azure Functions trace used in the paper, compressed into
// the given duration: a dominant single-cycle diurnal swing, a weaker
// second harmonic, lognormal-ish burst noise, and occasional spikes.
// The returned trace is a *shape* in [0, 1]; scale it with ScaleTo to
// match system capacity, as the paper does.
func AzureLike(rng *stats.RNG, duration, interval float64) (*Trace, error) {
	if duration <= 0 || interval <= 0 {
		return nil, fmt.Errorf("trace: duration and interval must be positive")
	}
	n := int(math.Ceil(duration / interval))
	r := rng.Stream("azure")
	rates := make([]float64, n)
	phase := r.Uniform(0, 2*math.Pi)
	for i := range rates {
		t := float64(i) / float64(n)
		diurnal := 0.5 - 0.5*math.Cos(2*math.Pi*t)     // one main peak
		harmonic := 0.12 * math.Sin(4*math.Pi*t+phase) // secondary wave
		noise := 0.06 * r.Normal(0, 1)                 // measurement jitter
		burst := 0.0                                   // occasional spikes
		if r.Bernoulli(0.02) {
			burst = r.Uniform(0.05, 0.25)
		}
		v := diurnal + harmonic + noise + burst
		if v < 0 {
			v = 0
		}
		rates[i] = v
	}
	return New(interval, rates)
}

// ScaleTo applies the paper's shape-preserving transformation: an
// affine map of the rate series onto [minQPS, maxQPS]. A constant
// trace maps to maxQPS. It returns a new trace.
func (t *Trace) ScaleTo(minQPS, maxQPS float64) (*Trace, error) {
	if minQPS < 0 || maxQPS < minQPS {
		return nil, fmt.Errorf("trace: need 0 <= min <= max, got [%v, %v]", minQPS, maxQPS)
	}
	lo, hi := t.Rates[0], t.Rates[0]
	for _, r := range t.Rates {
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	out := make([]float64, len(t.Rates))
	if hi == lo {
		for i := range out {
			out[i] = maxQPS
		}
		return New(t.Interval, out)
	}
	for i, r := range t.Rates {
		out[i] = minQPS + (r-lo)/(hi-lo)*(maxQPS-minQPS)
	}
	return New(t.Interval, out)
}

// Duration returns the total trace duration in seconds.
func (t *Trace) Duration() float64 { return float64(len(t.Rates)) * t.Interval }

// RateAt returns the demand at absolute time ts (seconds); times past
// the end return the final rate, negative times the first.
func (t *Trace) RateAt(ts float64) float64 {
	if ts < 0 {
		return t.Rates[0]
	}
	i := int(ts / t.Interval)
	if i >= len(t.Rates) {
		return t.Rates[len(t.Rates)-1]
	}
	return t.Rates[i]
}

// MeanRate returns the time-averaged demand.
func (t *Trace) MeanRate() float64 { return stats.Mean(t.Rates) }

// PeakRate returns the maximum demand.
func (t *Trace) PeakRate() float64 { return stats.Max(t.Rates) }

// MinRate returns the minimum demand.
func (t *Trace) MinRate() float64 { return stats.Min(t.Rates) }

// ExpectedQueries returns the expected number of arrivals over the
// whole trace.
func (t *Trace) ExpectedQueries() float64 {
	sum := 0.0
	for _, r := range t.Rates {
		sum += r * t.Interval
	}
	return sum
}

// Name returns the artifact-style trace name, e.g. "trace_4to32qps".
func (t *Trace) Name() string {
	return fmt.Sprintf("trace_%dto%dqps", int(math.Round(t.MinRate())), int(math.Round(t.PeakRate())))
}

// Arrivals synthesizes Poisson arrival timestamps over the trace: in
// each interval, arrivals form a Poisson process at that interval's
// rate. The returned times are sorted and lie in [0, Duration).
func (t *Trace) Arrivals(rng *stats.RNG) []float64 {
	r := rng.Stream("arrivals")
	var out []float64
	for i, rate := range t.Rates {
		if rate <= 0 {
			continue
		}
		start := float64(i) * t.Interval
		// Exponential inter-arrivals within the interval.
		at := start + r.Exponential(rate)
		for at < start+t.Interval {
			out = append(out, at)
			at += r.Exponential(rate)
		}
	}
	sort.Float64s(out)
	return out
}

// Write serializes the trace in the artifact's text format: a header
// line "# interval <seconds>" followed by one QPS value per line.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# interval %g\n", t.Interval); err != nil {
		return err
	}
	for _, r := range t.Rates {
		if _, err := fmt.Fprintf(bw, "%g\n", r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace written by Write. Files without the interval
// header default to 1-second intervals (the artifact's convention).
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	interval := 1.0
	var rates []float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(strings.TrimPrefix(text, "#"))
			if len(fields) == 2 && fields[0] == "interval" {
				v, err := strconv.ParseFloat(fields[1], 64)
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("trace: bad interval header at line %d", line)
				}
				interval = v
			}
			continue
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad rate %q at line %d", text, line)
		}
		rates = append(rates, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(interval, rates)
}
