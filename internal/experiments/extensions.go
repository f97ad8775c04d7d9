package experiments

import (
	"fmt"
	"io"

	"diffserve/internal/cascade"
	"diffserve/internal/discriminator"
	"diffserve/internal/imagespace"
	"diffserve/internal/model"
	"diffserve/internal/parallel"
	"diffserve/internal/stats"
)

// ReuseRow is one light-heavy pair's outcome in the §5 reuse study.
type ReuseRow struct {
	Pair     string
	FIDFresh float64 // heavy generations from fresh noise
	FIDReuse float64 // heavy generations resumed from the light output
}

// ReuseResult reproduces the §5 "Reuse Opportunities" discussion: the
// FID impact of letting the heavyweight model build on the lightweight
// model's intermediate output. The paper reports no significant change
// when reusing SD-Turbo outputs under SDv1.5, but FID degrading from
// 18.55 to 19.75 when reusing SDXS outputs — model compatibility is
// critical.
type ReuseResult struct {
	Rows []ReuseRow
}

// ReuseStudy regenerates the §5 reuse comparison.
func ReuseStudy(cfg Config) (*ReuseResult, error) {
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed)
	space := imagespace.NewSpace(rng.Stream("space"))
	reg := model.BuiltinRegistry()
	queries, ref, err := offlineSet(space, cfg.Queries)
	if err != nil {
		return nil, err
	}

	pairs := [][2]string{{"sdturbo", "sdv15"}, {"sdxs", "sdv15"}}
	rows, err := parallel.Map(len(pairs), func(p int) (ReuseRow, error) {
		pairSpec := pairs[p]
		light, heavy := reg.MustGet(pairSpec[0]), reg.MustGet(pairSpec[1])
		fresh := make([][]float64, len(queries))
		reuse := make([][]float64, len(queries))
		for i, q := range queries {
			li := space.GenerateDeterministic(q, light.Name, light.Gen)
			fresh[i] = space.GenerateDeterministic(q, heavy.Name, heavy.Gen).Features
			reuse[i] = space.GenerateWithReuse(q, heavy.Name, heavy.Gen, li, light.Gen).Features
		}
		fidFresh, err := ref.Score(fresh)
		if err != nil {
			return ReuseRow{}, err
		}
		fidReuse, err := ref.Score(reuse)
		if err != nil {
			return ReuseRow{}, err
		}
		return ReuseRow{
			Pair:     pairSpec[0] + "->" + pairSpec[1],
			FIDFresh: fidFresh, FIDReuse: fidReuse,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ReuseResult{Rows: rows}, nil
}

// Render writes the reuse study table.
func (r *ReuseResult) Render(w io.Writer) {
	fmt.Fprintln(w, "§5 reuse opportunities — heavy-model FID with and without reusing the light output")
	fmt.Fprintf(w, "%-20s %10s %10s %8s\n", "pair", "fresh", "reuse", "delta")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-20s %10.2f %10.2f %+8.2f\n", row.Pair, row.FIDFresh, row.FIDReuse, row.FIDReuse-row.FIDFresh)
	}
}

// MultiLevelPoint is one operating point of the three-level pipeline.
type MultiLevelPoint struct {
	Thresholds     []float64
	StageFractions []float64
	AvgLatency     float64
	FID            float64
}

// MultiLevelResult demonstrates the §5 longer-pipeline extension: a
// three-stage cascade (SDXS -> SD-Turbo -> SDv1.5) with a
// discriminator and confidence threshold after each of the first two
// stages.
type MultiLevelResult struct {
	Stages []string
	Points []MultiLevelPoint
	// BestTwoLevelFID is the best FID of the standard two-level
	// cascade (SD-Turbo -> SDv1.5) over the same threshold budget,
	// for comparison.
	BestTwoLevelFID float64
}

// MultiLevelStudy regenerates the longer-pipeline demonstration.
func MultiLevelStudy(cfg Config) (*MultiLevelResult, error) {
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed)
	space := imagespace.NewSpace(rng.Stream("space"))
	reg := model.BuiltinRegistry()
	queries, ref, err := offlineSet(space, cfg.Queries)
	if err != nil {
		return nil, err
	}
	mkDisc := func(label string) (discriminator.Scorer, error) {
		return discriminator.New(discriminator.Config{
			Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
		}, rng.Stream("disc:"+label))
	}
	d0, err := mkDisc("stage0")
	if err != nil {
		return nil, err
	}
	d1, err := mkDisc("stage1")
	if err != nil {
		return nil, err
	}
	variants := []*model.Variant{reg.MustGet("sdxs"), reg.MustGet("sdturbo"), reg.MustGet("sdv15")}
	ml, err := cascade.NewMultiLevel(space, variants, []discriminator.Scorer{d0, d1})
	if err != nil {
		return nil, err
	}

	out := &MultiLevelResult{}
	for _, v := range variants {
		out.Stages = append(out.Stages, v.DisplayName)
	}

	// Sweep a small grid of per-stage deferral budgets.
	grid := []float64{0.3, 0.5, 0.7}
	if cfg.Short {
		grid = []float64{0.4, 0.7}
	}
	prof0, err := ml.ProfileStage(queries, nil, 0)
	if err != nil {
		return nil, err
	}
	for _, f0 := range grid {
		t0 := prof0.ThresholdForFraction(f0)
		prof1, err := ml.ProfileStage(queries, []float64{t0}, 1)
		if err != nil {
			return nil, err
		}
		for _, f1 := range grid {
			t1 := prof1.ThresholdForFraction(f1)
			thresholds := []float64{t0, t1}
			feats := make([][]float64, len(queries))
			latency := 0.0
			for i, q := range queries {
				o, err := ml.Process(q, thresholds)
				if err != nil {
					return nil, err
				}
				feats[i] = o.Served.Features
				latency += o.Latency
			}
			score, err := ref.Score(feats)
			if err != nil {
				return nil, err
			}
			fracs, err := ml.StageFractions(queries, thresholds)
			if err != nil {
				return nil, err
			}
			out.Points = append(out.Points, MultiLevelPoint{
				Thresholds:     thresholds,
				StageFractions: fracs,
				AvgLatency:     latency / float64(len(queries)),
				FID:            score,
			})
		}
	}

	// Two-level comparison: SD-Turbo -> SDv1.5 over the same fracs.
	two, err := cascade.New(space, reg.MustGet("sdturbo"), reg.MustGet("sdv15"), d1)
	if err != nil {
		return nil, err
	}
	prof, err := cascade.ProfileDeferral(two, queries)
	if err != nil {
		return nil, err
	}
	best := -1.0
	for _, f := range grid {
		thr := prof.ThresholdForFraction(f)
		feats := make([][]float64, len(queries))
		for i, q := range queries {
			feats[i] = two.Process(q, thr).Served.Features
		}
		score, err := ref.Score(feats)
		if err != nil {
			return nil, err
		}
		if best < 0 || score < best {
			best = score
		}
	}
	out.BestTwoLevelFID = best
	return out, nil
}

// Render writes the multi-level study.
func (r *MultiLevelResult) Render(w io.Writer) {
	fmt.Fprintf(w, "§5 longer pipelines — three-level cascade %v\n", r.Stages)
	fmt.Fprintf(w, "%-16s %-22s %10s %8s\n", "thresholds", "stage fractions", "latency", "FID")
	for _, p := range r.Points {
		fmt.Fprintf(w, "[%.2f %.2f]     [%.2f %.2f %.2f]       %8.2fs %8.2f\n",
			p.Thresholds[0], p.Thresholds[1],
			p.StageFractions[0], p.StageFractions[1], p.StageFractions[2],
			p.AvgLatency, p.FID)
	}
	fmt.Fprintf(w, "best two-level FID over the same budget: %.2f\n", r.BestTwoLevelFID)
}
