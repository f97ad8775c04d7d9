package system

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"diffserve/internal/allocator"
	"diffserve/internal/cascade"
	"diffserve/internal/controller"
	"diffserve/internal/discriminator"
	"diffserve/internal/imagespace"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/metrics"
	"diffserve/internal/model"
	"diffserve/internal/stats"
	"diffserve/internal/trace"
)

// fixture builds a small cascade-1 system config on a given trace.
func fixture(t *testing.T, tr *trace.Trace, workers int, mode loadbalancer.Mode) Config {
	t.Helper()
	rng := stats.NewRNG(404)
	space := imagespace.NewSpace(rng.Stream("space"))
	reg := model.BuiltinRegistry()
	light, heavy := reg.MustGet("sdturbo"), reg.MustGet("sdv15")
	d, err := discriminator.New(discriminator.Config{
		Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
	}, rng.Stream("disc"))
	if err != nil {
		t.Fatal(err)
	}
	casc, err := cascade.New(space, light, heavy, d)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := cascade.ProfileDeferral(casc, space.SampleQueries(900000, 800))
	if err != nil {
		t.Fatal(err)
	}
	a, err := allocator.NewMILP(allocator.Config{
		Light: light, Heavy: heavy,
		DiscPerImage: d.PerImageLatency(),
		Deferral:     prof,
		TotalWorkers: workers,
		SLO:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(controller.Config{Alloc: a})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Space: space, Light: light, Heavy: heavy, Scorer: d,
		Workers: workers, SLO: 5, Trace: tr, Controller: ctrl,
		Mode: mode, Seed: 99,
	}
}

func TestConfigValidation(t *testing.T) {
	tr, _ := trace.Static(5, 20, 1)
	good := fixture(t, tr, 8, loadbalancer.ModeCascade)
	mods := []func(*Config){
		func(c *Config) { c.Space = nil },
		func(c *Config) { c.Light = nil },
		func(c *Config) { c.Scorer = nil },
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.SLO = 0 },
		func(c *Config) { c.Trace = nil },
		func(c *Config) { c.Controller = nil },
	}
	for i, mod := range mods {
		bad := good
		mod(&bad)
		if _, err := New(bad); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := New(good); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestScorerOptionalOutsideCascade(t *testing.T) {
	tr, _ := trace.Static(5, 20, 1)
	cfg := fixture(t, tr, 8, loadbalancer.ModeAllLight)
	cfg.Scorer = nil
	if _, err := New(cfg); err != nil {
		t.Errorf("all-light mode should not need a scorer: %v", err)
	}
}

func TestRunAccountsEveryQuery(t *testing.T) {
	tr, _ := trace.Static(8, 60, 1)
	sys, err := New(fixture(t, tr, 8, loadbalancer.ModeCascade))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatal("no arrivals synthesized")
	}
	// Conservation: every arrival is recorded exactly once.
	if res.Collector.Len() != res.Queries {
		t.Errorf("recorded %d of %d queries", res.Collector.Len(), res.Queries)
	}
	seen := map[int]bool{}
	for _, r := range res.Collector.Records() {
		if seen[r.ID] {
			t.Fatalf("query %d recorded twice", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestRunLatenciesNonNegativeAndOrdered(t *testing.T) {
	tr, _ := trace.Static(10, 40, 1)
	sys, err := New(fixture(t, tr, 8, loadbalancer.ModeCascade))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	minExec := 0.1 // light batch-1 execution
	for _, r := range res.Collector.Records() {
		if r.Dropped {
			continue
		}
		lat := r.Completion - r.Arrival
		if lat < minExec-1e-9 {
			t.Fatalf("query %d latency %v below execution floor", r.ID, lat)
		}
		if lat > 1000 {
			t.Fatalf("query %d latency %v absurd", r.ID, lat)
		}
	}
}

func TestCascadeDeferralsCarryConfidence(t *testing.T) {
	tr, _ := trace.Static(6, 60, 1)
	sys, err := New(fixture(t, tr, 8, loadbalancer.ModeCascade))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	light, heavy := 0, 0
	for _, r := range res.Collector.Records() {
		if r.Dropped {
			continue
		}
		switch r.ServedBy {
		case "sdturbo":
			light++
			if r.Confidence <= 0 {
				t.Error("light-served record missing confidence")
			}
		case "sdv15":
			heavy++
			if !r.Deferred {
				t.Error("heavy-served record not marked deferred")
			}
		default:
			t.Errorf("unexpected variant %q", r.ServedBy)
		}
	}
	if light == 0 || heavy == 0 {
		t.Errorf("cascade should use both pools: light=%d heavy=%d", light, heavy)
	}
}

func TestAllLightNeverUsesHeavy(t *testing.T) {
	tr, _ := trace.Static(6, 30, 1)
	cfg := fixture(t, tr, 8, loadbalancer.ModeAllLight)
	lightVariant := cfg.Light
	ctrl := clipperController(t, cfg, false)
	cfg.Controller = ctrl
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Collector.Records() {
		if r.Dropped {
			continue
		}
		if r.ServedBy != lightVariant.Name {
			t.Fatalf("all-light served by %q", r.ServedBy)
		}
	}
}

func clipperController(t *testing.T, cfg Config, heavy bool) *controller.Controller {
	t.Helper()
	v := cfg.Light
	if heavy {
		v = cfg.Heavy
	}
	a, err := allocator.NewClipper(v, heavy, cfg.Workers, cfg.SLO)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(controller.Config{Alloc: a})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestOverloadShedsInsteadOfQueueing(t *testing.T) {
	// 2 workers, all-heavy at 20 QPS: massive overload; the system
	// must shed to bound latency rather than queue forever.
	tr, _ := trace.Static(20, 60, 1)
	cfg := fixture(t, tr, 2, loadbalancer.ModeAllHeavy)
	cfg.Controller = clipperController(t, cfg, true)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if sum.DropRatio < 0.5 {
		t.Errorf("drop ratio = %v, want heavy shedding under 10x overload", sum.DropRatio)
	}
	// Completed queries must still have bounded latency.
	if p99 := res.Collector.LatencyQuantile(0.99); p99 > 30 {
		t.Errorf("p99 latency = %v, shedding failed to bound waits", p99)
	}
}

func TestDeterministicRuns(t *testing.T) {
	tr, _ := trace.Static(8, 40, 1)
	run := func() float64 {
		sys, err := New(fixture(t, tr, 8, loadbalancer.ModeCascade))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		s := res.Summary()
		return s.FID + s.ViolationRatio*1000 + float64(s.Queries)
	}
	if a, b := run(), run(); math.Abs(a-b) > 1e-9 {
		t.Errorf("runs differ: %v vs %v", a, b)
	}
}

func TestPlansLogged(t *testing.T) {
	tr, _ := trace.Static(8, 30, 1)
	sys, err := New(fixture(t, tr, 8, loadbalancer.ModeCascade))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Initial plan + one per 2s tick over 30s.
	if len(res.Plans) < 15 {
		t.Errorf("plan log = %d entries", len(res.Plans))
	}
	if res.MeanSolveSeconds <= 0 {
		t.Error("solver time not measured")
	}
}

func TestModelLoadDelayVisible(t *testing.T) {
	// With load delays disabled the system should perform at least as
	// well as with them enabled (sanity of the switching model).
	tr, err := trace.AzureLike(stats.NewRNG(5), 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err = tr.ScaleTo(4, 24)
	if err != nil {
		t.Fatal(err)
	}
	cfgSlow := fixture(t, tr, 8, loadbalancer.ModeCascade)
	sysSlow, err := New(cfgSlow)
	if err != nil {
		t.Fatal(err)
	}
	resSlow, err := sysSlow.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfgFast := fixture(t, tr, 8, loadbalancer.ModeCascade)
	cfgFast.DisableModelLoadDelay = true
	sysFast, err := New(cfgFast)
	if err != nil {
		t.Fatal(err)
	}
	resFast, err := sysFast.Run()
	if err != nil {
		t.Fatal(err)
	}
	slow := resSlow.Summary()
	fast := resFast.Summary()
	if fast.ViolationRatio > slow.ViolationRatio+0.05 {
		t.Errorf("instant model loads should not hurt: fast %.3f vs slow %.3f",
			fast.ViolationRatio, slow.ViolationRatio)
	}
}

// TestRunIdenticalAcrossProcs runs one cascade and one random-split
// system at GOMAXPROCS 1, 2 and 8: the producer filling the query
// table, the cascade's light images and scores it computes ahead of
// the event loop, and the timeline's parallel scoring must not move a
// bit of any record, of the FID reference or of the plan log.
func TestRunIdenticalAcrossProcs(t *testing.T) {
	tr, err := trace.AzureLike(stats.NewRNG(5), 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr, err = tr.ScaleTo(4, 24); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res   *Result
		plans []controller.PlanAt
	}
	run := func(mode loadbalancer.Mode, procs int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sys, err := New(fixture(t, tr, 8, mode))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		plans := append([]controller.PlanAt(nil), res.Plans...)
		for i := range plans {
			plans[i].Plan.SolveTime = 0 // wall clock
		}
		return outcome{res, plans}
	}
	for _, mode := range []loadbalancer.Mode{loadbalancer.ModeCascade, loadbalancer.ModeRandomSplit} {
		want := run(mode, 1)
		if n := want.res.Queries; n <= 2*producerBlock {
			t.Fatalf("mode %v: %d queries fill fewer than three producer blocks", mode, n)
		}
		for _, procs := range []int{2, 8} {
			got := run(mode, procs)
			wr, gr := want.res.Collector.Records(), got.res.Collector.Records()
			if len(gr) != len(wr) {
				t.Fatalf("mode %v, GOMAXPROCS %d: %d records, want %d", mode, procs, len(gr), len(wr))
			}
			for i := range wr {
				if !sameRecord(gr[i], wr[i]) {
					t.Fatalf("mode %v, GOMAXPROCS %d: record %d is %+v, want %+v", mode, procs, i, gr[i], wr[i])
				}
			}
			if !sameBits(got.res.Reference.Mu, want.res.Reference.Mu) || !sameBits(got.res.Reference.Sigma.Data, want.res.Reference.Sigma.Data) {
				t.Fatalf("mode %v, GOMAXPROCS %d: FID reference moments differ", mode, procs)
			}
			if !reflect.DeepEqual(got.plans, want.plans) {
				t.Fatalf("mode %v, GOMAXPROCS %d: plan logs differ", mode, procs)
			}
		}
	}
}

// sameRecord compares two records field by field, floats by their bits.
func sameRecord(a, b metrics.QueryRecord) bool {
	return a.ID == b.ID && a.Dropped == b.Dropped && a.Deferred == b.Deferred && a.ServedBy == b.ServedBy &&
		sameBits([]float64{a.Arrival, a.Completion, a.Deadline, a.Confidence, a.Artifact},
			[]float64{b.Arrival, b.Completion, b.Deadline, b.Confidence, b.Artifact}) &&
		(a.Features == nil) == (b.Features == nil) && sameBits(a.Features, b.Features)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
