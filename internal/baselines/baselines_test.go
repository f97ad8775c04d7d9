package baselines

import (
	"math"
	"testing"

	"diffserve/internal/loadbalancer"
	"diffserve/internal/metrics"
	"diffserve/internal/stats"
	"diffserve/internal/trace"
)

// runApproach executes an approach on the given trace and returns its
// summary.
func runApproach(t testing.TB, env *Env, app Approach, tr *trace.Trace, opt Options) metrics.Summary {
	t.Helper()
	sys, err := env.NewSystem(app, tr, opt)
	if err != nil {
		t.Fatalf("%s: build: %v", app, err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%s: run: %v", app, err)
	}
	return res.Summary()
}

func azureTrace(t testing.TB) *trace.Trace {
	t.Helper()
	raw, err := trace.AzureLike(stats.NewRNG(2025), 360, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := raw.ScaleTo(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestFigure5Ordering is the headline end-to-end regression: on the
// Azure-shaped dynamic trace with 16 workers, the approaches must
// reproduce the paper's Fig 5/6 ordering.
func TestFigure5Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end comparison skipped in -short mode")
	}
	env, err := NewEnv("cascade1", 31337, 2000)
	if err != nil {
		t.Fatal(err)
	}
	tr := azureTrace(t)

	sums := map[Approach]metrics.Summary{}
	for _, app := range All() {
		sums[app] = runApproach(t, env, app, tr, Options{})
		s := sums[app]
		t.Logf("%-18s FID=%6.2f viol=%6.3f drop=%6.3f defer=%5.2f meanLat=%5.2fs queries=%d",
			app, s.FID, s.ViolationRatio, s.DropRatio, s.DeferRatio, s.MeanLatency, s.Queries)
	}

	cl, ch := sums[ClipperLight], sums[ClipperHeavy]
	pr, ds, dd := sums[Proteus], sums[DiffServeStatic], sums[DiffServe]

	// Clipper-Light: lowest violations, worst quality.
	if cl.ViolationRatio > 0.02 {
		t.Errorf("Clipper-Light violations = %.3f, want ~0", cl.ViolationRatio)
	}
	for _, other := range []metrics.Summary{ch, ds, dd} {
		if !(cl.FID > other.FID) {
			t.Errorf("Clipper-Light FID %.2f should be worse than %.2f", cl.FID, other.FID)
		}
	}
	// Clipper-Heavy: massive violations at peak.
	if ch.ViolationRatio < 0.30 {
		t.Errorf("Clipper-Heavy violations = %.3f, want >= 0.30", ch.ViolationRatio)
	}
	// Proteus: better FID than Clipper-Light but only modestly
	// (query-agnostic), with controlled violations.
	if !(pr.FID < cl.FID) {
		t.Errorf("Proteus FID %.2f should beat Clipper-Light %.2f", pr.FID, cl.FID)
	}
	if pr.ViolationRatio > 0.15 {
		t.Errorf("Proteus violations = %.3f, too high", pr.ViolationRatio)
	}
	// DiffServe: best FID of all approaches and low violations.
	for app, other := range map[Approach]metrics.Summary{
		ClipperLight: cl, ClipperHeavy: ch, Proteus: pr,
	} {
		if !(dd.FID < other.FID) {
			t.Errorf("DiffServe FID %.2f should beat %s %.2f", dd.FID, app, other.FID)
		}
	}
	if dd.ViolationRatio > 0.10 {
		t.Errorf("DiffServe violations = %.3f, want <= 0.10", dd.ViolationRatio)
	}
	// DiffServe must beat DiffServe-Static on violations (dynamic
	// adaptation during peak).
	if !(dd.ViolationRatio <= ds.ViolationRatio+0.02) {
		t.Errorf("DiffServe violations %.3f should not exceed static %.3f", dd.ViolationRatio, ds.ViolationRatio)
	}
}

func TestApproachesDeterministic(t *testing.T) {
	env, err := NewEnv("cascade1", 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Static(8, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := runApproach(t, env, DiffServe, tr, Options{Workers: 8})
	env2, err := NewEnv("cascade1", 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	b := runApproach(t, env2, DiffServe, tr, Options{Workers: 8})
	if a.Queries != b.Queries || a.ViolationRatio != b.ViolationRatio || math.Abs(a.FID-b.FID) > 1e-9 {
		t.Errorf("runs not deterministic: %+v vs %+v", a, b)
	}
}

func TestUnknownApproach(t *testing.T) {
	env, err := NewEnv("cascade1", 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := trace.Static(4, 10, 1)
	if _, err := env.NewSystem("bogus", tr, Options{}); err == nil {
		t.Error("unknown approach should fail")
	}
}

func TestNewEnvUnknownCascade(t *testing.T) {
	if _, err := NewEnv("cascade9", 1, 100); err == nil {
		t.Error("unknown cascade should fail")
	}
}

func TestAllAndAblationsLists(t *testing.T) {
	if len(All()) != 5 {
		t.Errorf("All() = %d approaches, want 5", len(All()))
	}
	if len(Ablations()) != 4 {
		t.Errorf("Ablations() = %d, want 4", len(Ablations()))
	}
}

// TestHarnessMatchesNewSystem holds the cluster's recipe to the
// simulator's: for every approach, Harness carries the env's
// components, the trace and opt's defaulted settings, routes in the
// approach's mode, and its fresh controller's first plan is the one the
// NewSystem run applied at trace zero.
func TestHarnessMatchesNewSystem(t *testing.T) {
	env, err := NewEnv("cascade1", 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Static(8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	modes := map[Approach]loadbalancer.Mode{
		ClipperLight: loadbalancer.ModeAllLight,
		ClipperHeavy: loadbalancer.ModeAllHeavy,
		Proteus:      loadbalancer.ModeRandomSplit,
	}
	for _, opt := range []Options{
		{Workers: 8},
		{Workers: 8, SLO: 4, Seed: 5, OverProvision: 1.2, QueryIDBase: 100, DisableModelLoadDelay: true},
	} {
		want := opt.withDefaults(env)
		for _, app := range append(All(), Ablations()[1:]...) {
			hc, err := env.Harness(app, tr, opt)
			if err != nil {
				t.Fatalf("%s: %v", app, err)
			}
			if hc.Space != env.Space || hc.Light != env.Light || hc.Heavy != env.Heavy || hc.Scorer != env.Scorer || hc.Trace != tr {
				t.Errorf("%s %+v: harness does not carry the env's components and trace", app, opt)
			}
			if hc.Workers != want.Workers || hc.SLO != want.SLO || hc.Seed != want.Seed ||
				hc.QueryIDBase != want.QueryIDBase || hc.DisableLoadDelay != want.DisableModelLoadDelay {
				t.Errorf("%s %+v: harness workers %d SLO %v seed %d base %d no-load-delay %v, want %+v",
					app, opt, hc.Workers, hc.SLO, hc.Seed, hc.QueryIDBase, hc.DisableLoadDelay, want)
			}
			wantMode, ok := modes[app]
			if !ok {
				wantMode = loadbalancer.ModeCascade
			}
			if hc.Mode != wantMode {
				t.Errorf("%s: harness mode %v, want %v", app, hc.Mode, wantMode)
			}

			sys, err := env.NewSystem(app, tr, opt)
			if err != nil {
				t.Fatalf("%s: %v", app, err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatalf("%s: %v", app, err)
			}
			got, err := hc.Ctrl.InitialPlan(tr.RateAt(0))
			if err != nil {
				t.Fatalf("%s: %v", app, err)
			}
			sim := res.Plans[0].Plan
			got.SolveTime, sim.SolveTime = 0, 0
			if got != sim {
				t.Errorf("%s %+v: harness plans %v at trace zero, the simulator %v", app, opt, got, sim)
			}
		}
	}
}
