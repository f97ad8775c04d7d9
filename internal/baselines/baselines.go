// Package baselines assembles runnable serving systems for every
// approach in the paper's evaluation (Table 1): Clipper-Light,
// Clipper-Heavy, Proteus, DiffServe-Static, and DiffServe, plus the
// §4.5 allocator ablations (static threshold, AIMD batching, no
// queuing model). Each approach pairs a routing mode with an
// allocator; the Env fixture shares the query space, model variants,
// discriminator, and deferral profile across approaches so comparisons
// are apples-to-apples. An Env builds one approach's run for either
// driver from the same recipe: NewSystem for the discrete-event
// simulator, Harness for the cluster runtime.
package baselines

import (
	"fmt"

	"diffserve/internal/allocator"
	"diffserve/internal/cascade"
	"diffserve/internal/cluster"
	"diffserve/internal/controller"
	"diffserve/internal/discriminator"
	"diffserve/internal/imagespace"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/model"
	"diffserve/internal/stats"
	"diffserve/internal/system"
	"diffserve/internal/trace"
)

// Approach names a serving policy from the paper.
type Approach string

// The approaches of Table 1 and the §4.5 ablations.
const (
	ClipperLight    Approach = "clipper-light"
	ClipperHeavy    Approach = "clipper-heavy"
	Proteus         Approach = "proteus"
	DiffServeStatic Approach = "diffserve-static"
	DiffServe       Approach = "diffserve"

	// Ablations (§4.5).
	DiffServeStaticThreshold Approach = "diffserve-static-threshold"
	DiffServeAIMD            Approach = "diffserve-aimd"
	DiffServeNoQueue         Approach = "diffserve-no-queue"
)

// All returns the five headline approaches in presentation order.
func All() []Approach {
	return []Approach{ClipperLight, ClipperHeavy, Proteus, DiffServeStatic, DiffServe}
}

// Ablations returns DiffServe plus its §4.5 allocator ablations.
func Ablations() []Approach {
	return []Approach{DiffServe, DiffServeStaticThreshold, DiffServeNoQueue, DiffServeAIMD}
}

// Env is the shared experimental fixture for one cascade.
type Env struct {
	Space    *imagespace.Space
	Spec     model.CascadeSpec
	Light    *model.Variant
	Heavy    *model.Variant
	Scorer   discriminator.Scorer
	Deferral *cascade.DeferralProfile
	Seed     uint64
}

// NewEnv builds the fixture for the named builtin cascade, profiling
// the deferral curve on calibrationQueries offline queries.
func NewEnv(cascadeName string, seed uint64, calibrationQueries int) (*Env, error) {
	spec, err := model.CascadeByName(cascadeName)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	space := imagespace.NewSpace(rng.Stream("space"))
	reg := model.BuiltinRegistry()
	light, heavy := reg.MustGet(spec.Light), reg.MustGet(spec.Heavy)
	scorer, err := discriminator.New(discriminator.Config{
		Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
	}, rng.Stream("disc"))
	if err != nil {
		return nil, err
	}
	casc, err := cascade.New(space, light, heavy, scorer)
	if err != nil {
		return nil, err
	}
	if calibrationQueries <= 0 {
		calibrationQueries = 2000
	}
	// Calibration queries draw from a disjoint ID range so serving
	// experiments never replay them.
	calib := space.SampleQueries(1_000_000, calibrationQueries)
	prof, err := cascade.ProfileDeferral(casc, calib)
	if err != nil {
		return nil, err
	}
	return &Env{
		Space: space, Spec: spec,
		Light: light, Heavy: heavy,
		Scorer: scorer, Deferral: prof,
		Seed: seed,
	}, nil
}

// Options tune a system build.
type Options struct {
	// Workers is the device budget (default 16, the paper's testbed).
	Workers int
	// SLO overrides the cascade's default deadline when positive.
	SLO float64
	// OverProvision overrides the default 1.05 factor when positive.
	OverProvision float64
	// Seed overrides the env seed for arrival synthesis.
	Seed uint64
	// QueryIDBase offsets the query population.
	// benchmark/ only: replay.go (sim_replay); item P deletes it.
	QueryIDBase int
	// DisableModelLoadDelay makes role switches instantaneous.
	DisableModelLoadDelay bool
}

func (o Options) withDefaults(e *Env) Options {
	if o.Workers <= 0 {
		o.Workers = 16
	}
	if o.SLO <= 0 {
		o.SLO = e.Spec.SLOSeconds
	}
	if o.Seed == 0 {
		o.Seed = e.Seed + 17
	}
	return o
}

// AllocConfig is the allocator configuration the DiffServe-family
// approaches and Proteus plan with, for opt with its defaults applied.
func (e *Env) AllocConfig(opt Options) allocator.Config {
	opt = opt.withDefaults(e)
	return allocator.Config{
		Light: e.Light, Heavy: e.Heavy,
		DiscPerImage:  e.Scorer.PerImageLatency(),
		Deferral:      e.Deferral,
		TotalWorkers:  opt.Workers,
		SLO:           opt.SLO,
		OverProvision: opt.OverProvision,
	}
}

// NewSystem builds the simulator's run of the approach on the trace.
func (e *Env) NewSystem(app Approach, tr *trace.Trace, opt Options) (*system.System, error) {
	opt = opt.withDefaults(e)
	mode, ctrl, err := e.controller(app, tr, opt)
	if err != nil {
		return nil, err
	}
	return system.New(system.Config{
		Space: e.Space, Light: e.Light, Heavy: e.Heavy, Scorer: e.Scorer,
		Workers: opt.Workers, SLO: opt.SLO,
		Trace: tr, Controller: ctrl, Mode: mode,
		Seed:                  opt.Seed,
		QueryIDBase:           opt.QueryIDBase,
		DisableModelLoadDelay: opt.DisableModelLoadDelay,
	})
}

// Harness builds the cluster runtime's run of the approach on the
// trace: the components, routing mode, controller and seed NewSystem
// gives the simulator. The caller sets only how the run is replayed:
// Timescale, Transport and LBShards.
func (e *Env) Harness(app Approach, tr *trace.Trace, opt Options) (cluster.HarnessConfig, error) {
	opt = opt.withDefaults(e)
	mode, ctrl, err := e.controller(app, tr, opt)
	if err != nil {
		return cluster.HarnessConfig{}, err
	}
	return cluster.HarnessConfig{
		Space: e.Space, Light: e.Light, Heavy: e.Heavy, Scorer: e.Scorer,
		Mode: mode, Workers: opt.Workers, SLO: opt.SLO,
		Trace: tr, Ctrl: ctrl, Seed: opt.Seed,
		DisableLoadDelay: opt.DisableModelLoadDelay,
		QueryIDBase:      opt.QueryIDBase,
	}, nil
}

// controller is the approach's recipe, shared by both drivers: its
// routing mode and a fresh controller over its allocator. opt's
// defaults are already applied.
func (e *Env) controller(app Approach, tr *trace.Trace, opt Options) (loadbalancer.Mode, *controller.Controller, error) {
	var (
		a    allocator.Allocator
		err  error
		mode = loadbalancer.ModeCascade
		aimd bool
	)
	switch app {
	case ClipperLight:
		mode = loadbalancer.ModeAllLight
		a, err = allocator.NewClipper(e.Light, false, opt.Workers, opt.SLO)
	case ClipperHeavy:
		mode = loadbalancer.ModeAllHeavy
		a, err = allocator.NewClipper(e.Heavy, true, opt.Workers, opt.SLO)
	case Proteus:
		mode = loadbalancer.ModeRandomSplit
		a, err = allocator.NewProteus(e.AllocConfig(opt))
	case DiffServeStatic:
		a, err = allocator.NewDiffServeStatic(e.AllocConfig(opt), tr.PeakRate())
	case DiffServe:
		a, err = allocator.NewMILP(e.AllocConfig(opt))
	case DiffServeStaticThreshold:
		cfg := e.AllocConfig(opt)
		// The static-threshold ablation pins the threshold at a
		// peak-survivable deferral level (an operator would choose a
		// value the heavy pool can absorb at peak), so it gives up the
		// off-peak quality headroom DiffServe exploits (§4.5).
		thr := e.Deferral.ThresholdForFraction(0.2)
		cfg.FixedThreshold = &thr
		a, err = allocator.NewMILP(cfg)
	case DiffServeAIMD:
		aimd = true
		a, err = allocator.NewMILP(e.AllocConfig(opt))
	case DiffServeNoQueue:
		cfg := e.AllocConfig(opt)
		cfg.Queue = allocator.QueueModelTwiceExec
		a, err = allocator.NewMILP(cfg)
	default:
		return mode, nil, fmt.Errorf("baselines: unknown approach %q", app)
	}
	if err != nil {
		return mode, nil, err
	}
	ctrl, err := controller.New(controller.Config{Alloc: a, AIMD: aimd})
	return mode, ctrl, err
}
