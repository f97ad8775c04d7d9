package experiments

import (
	"fmt"
	"io"

	"diffserve/internal/baselines"
	"diffserve/internal/metrics"
	"diffserve/internal/parallel"
	"diffserve/internal/trace"
)

// Table1Row is one approach's qualitative properties (paper Table 1).
type Table1Row struct {
	Approach   string
	Allocation string // "Static" or "Dynamic"
	QueryAware bool
}

// Table1 reproduces the paper's approach-comparison matrix.
func Table1() []Table1Row {
	return []Table1Row{
		{Approach: "Clipper-Light", Allocation: "Static", QueryAware: false},
		{Approach: "Clipper-Heavy", Allocation: "Static", QueryAware: false},
		{Approach: "Proteus", Allocation: "Dynamic", QueryAware: false},
		{Approach: "DiffServe-Static", Allocation: "Static", QueryAware: true},
		{Approach: "DiffServe", Allocation: "Dynamic", QueryAware: true},
	}
}

// RenderTable1 writes Table 1.
func RenderTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — Comparison of DiffServe with baselines")
	fmt.Fprintf(w, "%-18s %-10s %s\n", "Approach", "Allocation", "Query-aware")
	for _, r := range Table1() {
		aware := "No"
		if r.QueryAware {
			aware = "Yes"
		}
		fmt.Fprintf(w, "%-18s %-10s %s\n", r.Approach, r.Allocation, aware)
	}
}

// Fig4Point is one (violation, FID) operating point of an approach
// under a static load.
type Fig4Point struct {
	Approach       string
	OverProvision  float64
	FID            float64
	ViolationRatio float64
}

// Fig4Result reproduces Fig 4: the FID / SLO-violation trade-off on
// synthetic static traces at three load levels. Dynamic approaches
// (Proteus, DiffServe) trace a curve by sweeping the over-provisioning
// factor; the static Clipper baselines contribute one point each.
type Fig4Result struct {
	// Loads maps load label ("low", "medium", "high") to points.
	Loads map[string][]Fig4Point
	// QPS records the demand used for each load label.
	QPS map[string]float64
}

// Fig4 regenerates Figure 4 for cascade 1.
func Fig4(cfg Config) (*Fig4Result, error) {
	cfg = cfg.withDefaults()
	loads := map[string]float64{"low": 8, "medium": 16, "high": 26}
	sweep := []float64{0.7, 0.85, 1.0, 1.05, 1.2, 1.5}
	duration := cfg.TraceDuration / 2
	if cfg.Short {
		sweep = []float64{0.85, 1.05, 1.4}
	}

	out := &Fig4Result{Loads: map[string][]Fig4Point{}, QPS: loads}

	// Flatten (load, approach, over-provision) into one deterministic
	// job list so independent runs fan out across the worker pool.
	labels := []string{"low", "medium", "high"}
	type fig4Job struct {
		label string
		app   baselines.Approach
		op    float64 // 0 for the static baselines
	}
	var jobs []fig4Job
	for _, label := range labels {
		for _, app := range []baselines.Approach{baselines.ClipperLight, baselines.ClipperHeavy} {
			jobs = append(jobs, fig4Job{label: label, app: app})
		}
		for _, app := range []baselines.Approach{baselines.Proteus, baselines.DiffServe} {
			for _, op := range sweep {
				jobs = append(jobs, fig4Job{label: label, app: app, op: op})
			}
		}
	}

	// Fresh env and trace per load level keeps approaches comparable
	// within the level while isolating RNG streams; runs within a
	// level share the env (its Space and scorer are safe for
	// concurrent use).
	envs := map[string]*baselines.Env{}
	trs := map[string]*trace.Trace{}
	for _, label := range labels {
		tr, err := trace.Static(loads[label], duration, 1)
		if err != nil {
			return nil, err
		}
		env, err := baselines.NewEnv("cascade1", cfg.Seed+7, min(cfg.Queries, 2000))
		if err != nil {
			return nil, err
		}
		envs[label], trs[label] = env, tr
	}

	points, err := parallel.Map(len(jobs), func(i int) (Fig4Point, error) {
		j := jobs[i]
		sum, _, err := runOnTrace(envs[j.label], j.app, trs[j.label], baselines.Options{
			Workers: cfg.Workers, OverProvision: j.op,
		})
		if err != nil {
			return Fig4Point{}, err
		}
		return Fig4Point{
			Approach: string(j.app), OverProvision: j.op,
			FID: sum.FID, ViolationRatio: sum.ViolationRatio,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		out.Loads[jobs[i].label] = append(out.Loads[jobs[i].label], p)
	}
	return out, nil
}

// Render writes the Fig 4 tables.
func (r *Fig4Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 4 — FID vs. SLO violation ratio on static traces (cascade 1)")
	labels := []string{"low", "medium", "high"}
	for _, label := range labels {
		fmt.Fprintf(w, "\n%s load (%.0f QPS)\n", label, r.QPS[label])
		fmt.Fprintf(w, "  %-16s %6s %8s %6s\n", "approach", "op", "viol", "FID")
		for _, p := range r.Loads[label] {
			op := "-"
			if p.OverProvision > 0 {
				op = fmt.Sprintf("%.2f", p.OverProvision)
			}
			fmt.Fprintf(w, "  %-16s %6s %8.3f %6.2f\n", p.Approach, op, p.ViolationRatio, p.FID)
		}
	}
}

// Fig5Result reproduces Fig 5: the per-approach timeline (demand, FID
// over time, SLO violations over time) on the Azure-shaped dynamic
// trace, plus end-to-end summaries.
type Fig5Result struct {
	TraceName string
	Summaries []Summary
	// Timelines maps approach to 10-second buckets.
	Timelines map[string][]metrics.Bucket
}

// Fig5 regenerates Figure 5 for cascade 1.
func Fig5(cfg Config) (*Fig5Result, error) {
	cfg = cfg.withDefaults()
	tr, err := azureTrace(cfg, 4, 32)
	if err != nil {
		return nil, err
	}
	env, err := baselines.NewEnv("cascade1", cfg.Seed+11, min(cfg.Queries, 2000))
	if err != nil {
		return nil, err
	}
	type run struct {
		sum     Summary
		buckets []metrics.Bucket
	}
	apps := baselines.All()
	runs, err := parallel.Map(len(apps), func(i int) (run, error) {
		sum, res, err := runOnTrace(env, apps[i], tr, baselines.Options{Workers: cfg.Workers})
		if err != nil {
			return run{}, err
		}
		buckets, err := res.Collector.Timeline(10, res.Reference, 48)
		return run{sum, buckets}, err
	})
	if err != nil {
		return nil, err
	}
	out := &Fig5Result{TraceName: tr.Name(), Timelines: map[string][]metrics.Bucket{}}
	for i, r := range runs {
		out.Summaries = append(out.Summaries, r.sum)
		out.Timelines[string(apps[i])] = r.buckets
	}
	return out, nil
}

// Render writes the Fig 5 summary and timeline.
func (r *Fig5Result) Render(w io.Writer) {
	writeSummaries(w, fmt.Sprintf("Figure 5 — dynamic trace %s (cascade 1)", r.TraceName), r.Summaries)
	apps := sortedKeys(r.Timelines)
	fmt.Fprintln(w, "\ntimeline (per 10s bucket: demand QPS | per-approach FID | per-approach viol):")
	fmt.Fprintf(w, "%6s %7s", "t", "demand")
	for _, a := range apps {
		fmt.Fprintf(w, " | %-14.14s", a)
	}
	fmt.Fprintln(w)
	n := 0
	for _, b := range r.Timelines[apps[0]] {
		fmt.Fprintf(w, "%6.0f %7.1f", b.Start, b.DemandQPS)
		for _, a := range apps {
			tb := r.Timelines[a][n]
			fmt.Fprintf(w, " | %s %.2f", fmtNaN(tb.FID), tb.ViolationRatio)
		}
		fmt.Fprintln(w)
		n++
	}
}

// Fig6Result reproduces Fig 6: average FID and SLO violation ratio for
// cascades 2 and 3 across all approaches.
type Fig6Result struct {
	// Cascades maps cascade name to per-approach summaries.
	Cascades map[string][]Summary
}

// Fig6 regenerates Figure 6 (simulator; the paper's testbed — the
// SimVsCluster experiment validates the simulator against the tcp
// cluster runtime).
func Fig6(cfg Config) (*Fig6Result, error) {
	cfg = cfg.withDefaults()
	out := &Fig6Result{Cascades: map[string][]Summary{}}
	// Cascade 2 uses the 4-32 QPS trace; cascade 3 (much heavier
	// models, SLO 15s) uses 1-8 QPS, as in the artifact.
	ranges := map[string][2]float64{
		"cascade2": {4, 32},
		"cascade3": {1, 8},
	}
	cascades := []string{"cascade2", "cascade3"}
	apps := baselines.All()
	type fig6Job struct {
		cascade string
		app     baselines.Approach
	}
	var jobs []fig6Job
	envs := map[string]*baselines.Env{}
	trs := map[string]*trace.Trace{}
	for _, name := range cascades {
		tr, err := azureTrace(cfg, ranges[name][0], ranges[name][1])
		if err != nil {
			return nil, err
		}
		env, err := baselines.NewEnv(name, cfg.Seed+13, min(cfg.Queries, 2000))
		if err != nil {
			return nil, err
		}
		envs[name], trs[name] = env, tr
		for _, app := range apps {
			jobs = append(jobs, fig6Job{cascade: name, app: app})
		}
	}
	sums, err := parallel.Map(len(jobs), func(i int) (Summary, error) {
		j := jobs[i]
		sum, _, err := runOnTrace(envs[j.cascade], j.app, trs[j.cascade], baselines.Options{Workers: cfg.Workers})
		return sum, err
	})
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		out.Cascades[jobs[i].cascade] = append(out.Cascades[jobs[i].cascade], sum)
	}
	return out, nil
}

// Render writes the Fig 6 tables.
func (r *Fig6Result) Render(w io.Writer) {
	for _, name := range []string{"cascade2", "cascade3"} {
		writeSummaries(w, fmt.Sprintf("Figure 6 — %s averages", name), r.Cascades[name])
		fmt.Fprintln(w)
	}
}
