package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"diffserve/internal/cascade"
	"diffserve/internal/discriminator"
	"diffserve/internal/fid"
	"diffserve/internal/imagespace"
	"diffserve/internal/model"
	"diffserve/internal/parallel"
	"diffserve/internal/stats"
)

// Fig1aPoint is one (threshold, latency, FID) operating point of a
// cascade under a scorer.
type Fig1aPoint struct {
	AvgLatency float64
	FID        float64
}

// VariantPoint is one independent model variant in the Fig 1a scatter.
type VariantPoint struct {
	Variant string
	Latency float64
	FID     float64
}

// Fig1aResult reproduces Fig 1a: cascade quality-latency curves for
// the Discriminator, Random, PickScore, and ClipScore scorers on the
// (SD-Turbo, SDv1.5) and (SDXS, SDv1.5) pairs, plus the standalone
// variant scatter.
type Fig1aResult struct {
	// Curves maps "light+heavy" to scorer curves.
	Curves map[string]map[string][]Fig1aPoint
	// Variants is the standalone scatter.
	Variants []VariantPoint
}

// Fig1a regenerates Figure 1a.
func Fig1a(cfg Config) (*Fig1aResult, error) {
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed)
	space := imagespace.NewSpace(rng.Stream("space"))
	reg := model.BuiltinRegistry()
	queries, ref, err := offlineSet(space, cfg.Queries)
	if err != nil {
		return nil, err
	}

	fracs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if cfg.Short {
		fracs = []float64{0, 0.3, 0.6, 1.0}
	}

	out := &Fig1aResult{Curves: map[string]map[string][]Fig1aPoint{}}
	type curveJob struct {
		pairKey      string
		light, heavy *model.Variant
		scorer       discriminator.Scorer
	}
	var jobs []curveJob
	for _, pairSpec := range [][2]string{{"sdturbo", "sdv15"}, {"sdxs", "sdv15"}} {
		light, heavy := reg.MustGet(pairSpec[0]), reg.MustGet(pairSpec[1])
		pairKey := pairSpec[0] + "+" + pairSpec[1]
		out.Curves[pairKey] = map[string][]Fig1aPoint{}

		effnet, err := discriminator.New(discriminator.Config{
			Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
		}, rng.Stream("disc:"+pairKey))
		if err != nil {
			return nil, err
		}
		scorers := []discriminator.Scorer{
			effnet,
			discriminator.NewRandom(rng.Stream("rand:" + pairKey)),
			discriminator.NewPickScore(rng.Stream("pick:" + pairKey)),
			discriminator.NewClipScore(rng.Stream("clip:" + pairKey)),
		}
		for _, s := range scorers {
			jobs = append(jobs, curveJob{pairKey: pairKey, light: light, heavy: heavy, scorer: s})
		}
	}
	curves, err := parallel.Map(len(jobs), func(i int) ([]Fig1aPoint, error) {
		j := jobs[i]
		return cascadeCurve(space, j.light, j.heavy, j.scorer, queries, ref, fracs)
	})
	if err != nil {
		return nil, err
	}
	for i, curve := range curves {
		out.Curves[jobs[i].pairKey][jobs[i].scorer.Name()] = curve
	}

	// Standalone variant scatter.
	names := reg.Names()
	variants, err := parallel.Map(len(names), func(i int) (VariantPoint, error) {
		v := reg.MustGet(names[i])
		feats := make([][]float64, len(queries))
		for k, q := range queries {
			feats[k] = space.GenerateDeterministic(q, v.Name, v.Gen).Features
		}
		score, err := ref.Score(feats)
		if err != nil {
			return VariantPoint{}, err
		}
		return VariantPoint{Variant: v.DisplayName, Latency: v.BaseLatency(), FID: score}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Variants = variants
	sort.Slice(out.Variants, func(i, j int) bool { return out.Variants[i].Latency < out.Variants[j].Latency })
	return out, nil
}

// cascadeCurve evaluates one scorer's FID/latency curve across
// deferral fractions at batch size 1 (as in Fig 1a).
func cascadeCurve(space *imagespace.Space, light, heavy *model.Variant, s discriminator.Scorer, queries []*imagespace.Query, ref *fid.Reference, fracs []float64) ([]Fig1aPoint, error) {
	c, err := cascade.New(space, light, heavy, s)
	if err != nil {
		return nil, err
	}
	prof, err := cascade.ProfileDeferral(c, queries)
	if err != nil {
		return nil, err
	}
	var out []Fig1aPoint
	for _, f := range fracs {
		thr := prof.ThresholdForFraction(f)
		feats := make([][]float64, len(queries))
		latency := 0.0
		for i, q := range queries {
			o := c.Process(q, thr)
			feats[i] = o.Served.Features
			latency += o.Latency
		}
		score, err := ref.Score(feats)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig1aPoint{AvgLatency: latency / float64(len(queries)), FID: score})
	}
	return out, nil
}

// Render writes the Fig 1a tables.
func (r *Fig1aResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 1a — FID vs. average inference latency (batch 1)")
	for _, pair := range sortedKeys(r.Curves) {
		curves := r.Curves[pair]
		fmt.Fprintf(w, "\npair %s\n", pair)
		for _, name := range sortedKeys(curves) {
			fmt.Fprintf(w, "  %-18s", name)
			for _, p := range curves[name] {
				fmt.Fprintf(w, "  (%.2fs, %5.2f)", p.AvgLatency, p.FID)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\nindependent variants (latency s, FID):")
	for _, v := range r.Variants {
		fmt.Fprintf(w, "  %-18s %6.3f %6.2f\n", v.Variant, v.Latency, v.FID)
	}
}

// sortedKeys returns a map's keys in order, so a table rendered from
// the map prints the same on every run.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Fig1bResult reproduces Fig 1b: the distribution of per-query quality
// differences between light and heavy generations, measured by
// PickScore (top panels) and discriminator confidence (bottom panels).
type Fig1bResult struct {
	// Pairs maps "light+heavy" to the CDF samples.
	Pairs map[string]*Fig1bPair
}

// Fig1bPair holds the difference samples for one cascade pair.
// Differences are heavy minus light, so negative values mean the light
// model's generation scored better.
type Fig1bPair struct {
	PickScoreDiff  []float64
	ConfidenceDiff []float64
	// EasyFraction is the ground-truth fraction of queries where the
	// light generation is at least as good (paper: 20-40%).
	EasyFraction float64
}

// Fig1b regenerates Figure 1b.
func Fig1b(cfg Config) (*Fig1bResult, error) {
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed)
	space := imagespace.NewSpace(rng.Stream("space"))
	reg := model.BuiltinRegistry()
	queries := space.SampleQueries(0, cfg.Queries)

	out := &Fig1bResult{Pairs: map[string]*Fig1bPair{}}
	for _, pairSpec := range [][2]string{{"sdturbo", "sdv15"}, {"sdxs", "sdv15"}} {
		light, heavy := reg.MustGet(pairSpec[0]), reg.MustGet(pairSpec[1])
		pairKey := pairSpec[0] + "+" + pairSpec[1]
		ps := discriminator.NewPickScore(rng.Stream("pick:" + pairKey))
		effnet, err := discriminator.New(discriminator.Config{
			Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
		}, rng.Stream("disc:"+pairKey))
		if err != nil {
			return nil, err
		}
		pair := &Fig1bPair{}
		easy := 0
		for _, q := range queries {
			li := space.GenerateDeterministic(q, light.Name, light.Gen)
			hi := space.GenerateDeterministic(q, heavy.Name, heavy.Gen)
			pair.PickScoreDiff = append(pair.PickScoreDiff, ps.Raw(q, hi)-ps.Raw(q, li))
			pair.ConfidenceDiff = append(pair.ConfidenceDiff, effnet.Confidence(q, hi)-effnet.Confidence(q, li))
			if li.Artifact <= hi.Artifact {
				easy++
			}
		}
		pair.EasyFraction = float64(easy) / float64(len(queries))
		out.Pairs[pairKey] = pair
	}
	return out, nil
}

// Render writes the Fig 1b CDF summaries.
func (r *Fig1bResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 1b — CDF of quality difference (heavy - light); negative = light better")
	for _, pair := range sortedKeys(r.Pairs) {
		p := r.Pairs[pair]
		psCDF := stats.NewCDF(p.PickScoreDiff)
		cfCDF := stats.NewCDF(p.ConfidenceDiff)
		fmt.Fprintf(w, "\npair %s (ground-truth easy fraction %.2f)\n", pair, p.EasyFraction)
		fmt.Fprintf(w, "  PickScore diff:  CDF(0)=%.2f  p10=%+.2f  median=%+.2f  p90=%+.2f\n",
			psCDF.At(0), psCDF.InverseAt(0.1), psCDF.InverseAt(0.5), psCDF.InverseAt(0.9))
		fmt.Fprintf(w, "  Confidence diff: CDF(0)=%.2f  p10=%+.2f  median=%+.2f  p90=%+.2f\n",
			cfCDF.At(0), cfCDF.InverseAt(0.1), cfCDF.InverseAt(0.5), cfCDF.InverseAt(0.9))
	}
}

// Fig1cPoint is one configuration's (throughput, FID) outcome.
type Fig1cPoint struct {
	ThroughputQPS float64
	FID           float64
	DeferFraction float64
	LightBatch    int
	HeavyBatch    int
	LightWorkers  int
	HeavyWorkers  int
}

// Fig1cResult reproduces Fig 1c: the FID-vs-serving-throughput space
// of cascade configurations on 10 workers, with the Pareto frontier
// marked.
type Fig1cResult struct {
	Points   []Fig1cPoint
	Frontier []Fig1cPoint
	Configs  int
}

// Fig1c regenerates Figure 1c by enumerating (threshold, batch sizes,
// placement) configurations of the SD-Turbo/SDv1.5 cascade on 10
// workers.
func Fig1c(cfg Config) (*Fig1cResult, error) {
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed)
	space := imagespace.NewSpace(rng.Stream("space"))
	reg := model.BuiltinRegistry()
	light, heavy := reg.MustGet("sdturbo"), reg.MustGet("sdv15")
	queries, ref, err := offlineSet(space, cfg.Queries)
	if err != nil {
		return nil, err
	}
	effnet, err := discriminator.New(discriminator.Config{
		Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
	}, rng.Stream("disc"))
	if err != nil {
		return nil, err
	}
	casc, err := cascade.New(space, light, heavy, effnet)
	if err != nil {
		return nil, err
	}
	prof, err := cascade.ProfileDeferral(casc, queries)
	if err != nil {
		return nil, err
	}

	const workers = 10
	fracGrid := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	if cfg.Short {
		fracGrid = []float64{0, 0.3, 0.6}
	}

	// Precompute the FID for each deferral fraction (it depends only
	// on the threshold, not on batches/placement). Sweep points are
	// independent, so they fan out across the worker pool.
	fidVals, err := parallel.Map(len(fracGrid), func(i int) (float64, error) {
		thr := prof.ThresholdForFraction(fracGrid[i])
		feats := make([][]float64, len(queries))
		for k, q := range queries {
			feats[k] = casc.Process(q, thr).Served.Features
		}
		return ref.Score(feats)
	})
	if err != nil {
		return nil, err
	}
	fidAt := map[float64]float64{}
	for i, f := range fracGrid {
		fidAt[f] = fidVals[i]
	}

	out := &Fig1cResult{}
	discLat := effnet.PerImageLatency()
	for _, f := range fracGrid {
		for _, b1 := range model.StandardBatchSizes {
			for _, b2 := range model.StandardBatchSizes {
				for x1 := 1; x1 < workers; x1++ {
					x2 := workers - x1
					lightTput := float64(x1) * float64(b1) / (light.Latency.Latency(b1) + float64(b1)*discLat)
					sysTput := lightTput
					if f > 0 {
						heavyTput := float64(x2) * heavy.Latency.Throughput(b2)
						sysTput = math.Min(lightTput, heavyTput/f)
					}
					out.Points = append(out.Points, Fig1cPoint{
						ThroughputQPS: sysTput, FID: fidAt[f], DeferFraction: f,
						LightBatch: b1, HeavyBatch: b2, LightWorkers: x1, HeavyWorkers: x2,
					})
				}
			}
		}
	}
	out.Configs = len(out.Points)

	// Pareto frontier: maximal throughput for minimal FID.
	sorted := append([]Fig1cPoint(nil), out.Points...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].ThroughputQPS != sorted[j].ThroughputQPS {
			return sorted[i].ThroughputQPS > sorted[j].ThroughputQPS
		}
		return sorted[i].FID < sorted[j].FID
	})
	bestFID := math.Inf(1)
	for _, p := range sorted {
		if p.FID < bestFID-1e-9 {
			bestFID = p.FID
			out.Frontier = append(out.Frontier, p)
		}
	}
	sort.Slice(out.Frontier, func(i, j int) bool {
		return out.Frontier[i].ThroughputQPS < out.Frontier[j].ThroughputQPS
	})
	return out, nil
}

// Render writes the Fig 1c frontier.
func (r *Fig1cResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 1c — FID vs. serving throughput (%d configurations, 10 workers)\n", r.Configs)
	fmt.Fprintln(w, "Pareto frontier (throughput QPS, FID, defer fraction, light x batch, heavy x batch):")
	for _, p := range r.Frontier {
		fmt.Fprintf(w, "  %7.2f  %6.2f  f=%.1f  %dx b%-2d  %dx b%-2d\n",
			p.ThroughputQPS, p.FID, p.DeferFraction, p.LightWorkers, p.LightBatch, p.HeavyWorkers, p.HeavyBatch)
	}
}
