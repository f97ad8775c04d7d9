package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"diffserve/internal/allocator"
	"diffserve/internal/baselines"
	"diffserve/internal/cluster"
	"diffserve/internal/fid"
	"diffserve/internal/stats"
	"diffserve/internal/trace"
)

// The paper's testbed: cascade 1 (SD-Turbo -> SDv1.5), 16 workers, 5 s SLO.
const (
	cascadeName  = "cascade1"
	calibQueries = 2000
	workers      = 16
	sloSeconds   = 5.0
	minQPS       = 4.0
	maxQPS       = 32.0
	cycleQueries = 16   // queries per closed-loop cycle
	sampleSize   = 4096 // precomputed query/image sample
	// setupRepeats is how many times a run sets up; setup_s is their
	// median, which holds steadier than one sample of under 300 ms.
	setupRepeats = 5
)

// fixtureSeed fixes what defines the workloads: the cascade's image
// space, discriminator and deferral profile, and the shape of the
// demand curve. -seed draws what is sampled from them — which block of
// queries is served and when each arrives — so runs with different
// seeds measure the same workload on different inputs. (With the curve
// and the cascade seeded too, sim_replay's median latency, which sits
// on one of a few batch execution times, flipped between 1253 and
// 1890 ms from seed to seed.)
const fixtureSeed = 20250610

// newEnv builds the shared fixture. Every workload runs in a fresh
// process with a fresh Env: imagespace memoises queries and images by
// ID inside the Env's Space, so an Env reused across runs serves later
// runs from a warm cache and speeds them up 15-25 %.
func newEnv() (*baselines.Env, error) {
	return baselines.NewEnv(cascadeName, fixtureSeed, calibQueries)
}

// queryBase is the first query ID of the seed's block of the query
// population; blocks of different seeds are disjoint.
func queryBase(seed uint64) int { return int(seed%1000) * 10_000_000 }

// allocConfig is the DiffServe allocator configuration of the testbed
// (baselines keeps its own copy unexported).
func allocConfig(env *baselines.Env) allocator.Config {
	return allocator.Config{
		Light: env.Light, Heavy: env.Heavy,
		DiscPerImage: env.Scorer.PerImageLatency(),
		Deferral:     env.Deferral,
		TotalWorkers: workers,
		SLO:          sloSeconds,
	}
}

// azureTrace is the Azure-like demand curve scaled to the testbed's
// 4-32 qps.
func azureTrace(duration float64) (*trace.Trace, error) {
	raw, err := trace.AzureLike(stats.NewRNG(fixtureSeed+1), duration, 1)
	if err != nil {
		return nil, err
	}
	return raw.ScaleTo(minQPS, maxQPS)
}

// sample is a block of queries with everything a worker would compute
// for them, generated once in set-up so that the closed-loop workloads
// spend no time in the model.
type sample struct {
	light, heavy []cluster.CompleteItem // ID and Arrival filled per use
	threshold    float64
	ref          *fid.Reference
}

// newSample generates the seed's first sampleSize queries.
func newSample(env *baselines.Env, seed uint64, deferFraction float64) (*sample, error) {
	s := &sample{
		light:     make([]cluster.CompleteItem, sampleSize),
		heavy:     make([]cluster.CompleteItem, sampleSize),
		threshold: env.Deferral.ThresholdForFraction(deferFraction),
	}
	real := make([][]float64, sampleSize)
	for i := 0; i < sampleSize; i++ {
		q := env.Space.SampleQuery(queryBase(seed) + i)
		li := env.Space.GenerateDeterministic(q, env.Light.Name, env.Light.Gen)
		hi := env.Space.GenerateDeterministic(q, env.Heavy.Name, env.Heavy.Gen)
		s.light[i] = cluster.CompleteItem{
			Variant: li.Variant, Features: li.Features, Artifact: li.Artifact,
			Confidence: env.Scorer.Confidence(q, li),
		}
		s.heavy[i] = cluster.CompleteItem{Variant: hi.Variant, Features: hi.Features, Artifact: hi.Artifact}
		real[i] = env.Space.RealImage(q)
	}
	ref, err := fid.NewReference(real)
	if err != nil {
		return nil, fmt.Errorf("sample reference: %w", err)
	}
	s.ref = ref
	return s, nil
}

// deferred reports whether the cascade sends query id to the heavy
// model at the sample's threshold — the same comparison LBServer makes.
func (s *sample) deferred(id int) bool { return s.light[id%sampleSize].Confidence < s.threshold }

// repeatSetup runs setup repeats times, tearing all but the last down,
// and returns the last one's product with the median duration.
func repeatSetup[T any](repeats int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		if i > 0 {
			teardown(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	sort.Float64s(times)
	return last, times[len(times)/2], nil
}

// procSnapshot is the process's resource use so far.
type procSnapshot struct {
	cpu             float64 // user + system seconds
	mallocs, bytes  uint64
	gcPauseNs       uint64
	gcCycles        uint32
	peakRSSKilobyte int64
}

func snapshotProc() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procSnapshot{
		cpu: tv(ru.Utime) + tv(ru.Stime), mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcPauseNs: ms.PauseTotalNs, gcCycles: ms.NumGC, peakRSSKilobyte: ru.Maxrss,
	}
}

// processMetrics fills the process.* layer from the measured pass's
// before/after snapshots.
func processMetrics(m map[string]float64, before, after procSnapshot, ops int) {
	m["process.cpu_s"] = after.cpu - before.cpu
	m["process.cpu_us_per_op"] = (after.cpu - before.cpu) * 1e6 / float64(ops)
	m["process.peak_rss_mb"] = float64(after.peakRSSKilobyte) / 1024
	m["process.gc_pause_ms"] = float64(after.gcPauseNs-before.gcPauseNs) / 1e6
	m["process.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
}

// scaled sizes a workload: perSecond operations for each second asked
// for, at least min. Work is fixed by -seconds, not by a deadline: a
// time-limited loop does more cycles when the code gets faster, the
// LBServer's collector and maps grow with every query, and per-cycle
// cost would then differ between the two sides of a comparison.
func scaled(seconds, perSecond float64, min int) int {
	n := int(math.Round(seconds * perSecond))
	if n < min {
		n = min
	}
	return n
}

// segmentSamples is how many consecutive cycles or ticks make one
// segment of a closed loop: enough for a 99th percentile with ten
// samples beyond it.
const segmentSamples = 1000

// closedLoopProcs is the GOMAXPROCS the closed loops run under. One
// driver goroutine that waits for every reply has no use for a second
// P, and with two every hop of a call wakes a parked thread on the
// other vCPU; what that wake-up costs is the hypervisor's mood, not
// the code's doing: on the reference box dataplane_tcp read 65 k or
// 113 k queries/s for minutes at a time at GOMAXPROCS 2 (p99 1.7 or
// 0.5 ms), against 160-200 k at 1. The open-loop cluster_trace keeps
// every core: there the workers, shards and controller do run at once.
const closedLoopProcs = 1

// closedLoopMetrics fills ops_per_s and the latency metrics from a
// closed loop's per-sample wall times (one sample = one cycle of
// opsPerSample queries, or one tick). Throughput and the 99th
// percentile are taken per segment of segmentSamples samples and the
// run reports the median segment: on a shared box a burst of
// interference slows a few hundred consecutive cycles fourfold, and
// whether a run caught one moved the whole-run p99 of dataplane_tcp
// between 0.18 and 0.74 ms. The mean is over every sample, bursts
// included.
func closedLoopMetrics(m map[string]float64, sampleMs []float64, opsPerSample int) {
	whole := len(sampleMs) / segmentSamples * segmentSamples
	if whole == 0 {
		whole = len(sampleMs) // a short run is one segment
	}
	var rates, p99s []float64
	total := 0.0
	for i := 0; i < whole; i += segmentSamples {
		seg := sampleMs[i:min(i+segmentSamples, whole)]
		ms := 0.0
		for _, v := range seg {
			ms += v
		}
		total += ms
		rates = append(rates, float64(len(seg)*opsPerSample)/(ms/1e3))
		p99s = append(p99s, quantile(seg, 0.99)) // sorts the segment, which is done with
	}
	m["ops_per_s"] = quantile(rates, 0.50)
	m["latency_ms_mean"] = total / float64(whole)
	m["bench.latency_ms_p99"] = quantile(p99s, 0.50)
}
