// Package baselines assembles runnable serving systems for every
// approach in the paper's evaluation (Table 1): Clipper-Light,
// Clipper-Heavy, Proteus, DiffServe-Static, and DiffServe, plus the
// §4.5 allocator ablations (static threshold, AIMD batching, no
// queuing model). Each approach pairs a routing mode with an
// allocator; the Env fixture shares the query space, model variants,
// discriminator, and deferral profile across approaches so comparisons
// are apples-to-apples.
package baselines

import (
	"fmt"

	"diffserve/internal/allocator"
	"diffserve/internal/cascade"
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

// allocConfig builds the shared allocator configuration.
func (e *Env) allocConfig(opt Options) allocator.Config {
	return allocator.Config{
		Light: e.Light, Heavy: e.Heavy,
		DiscPerImage:  e.Scorer.PerImageLatency(),
		Deferral:      e.Deferral,
		TotalWorkers:  opt.Workers,
		SLO:           opt.SLO,
		OverProvision: opt.OverProvision,
	}
}

// NewSystem builds a runnable system for the approach on the trace.
func (e *Env) NewSystem(app Approach, tr *trace.Trace, opt Options) (*system.System, error) {
	opt = opt.withDefaults(e)

	var (
		alloc allocfn
		mode  loadbalancer.Mode
		aimd  bool
	)
	switch app {
	case ClipperLight:
		mode = loadbalancer.ModeAllLight
		alloc = func() (allocator.Allocator, error) {
			return allocator.NewClipper(e.Light, false, opt.Workers, opt.SLO)
		}
	case ClipperHeavy:
		mode = loadbalancer.ModeAllHeavy
		alloc = func() (allocator.Allocator, error) {
			return allocator.NewClipper(e.Heavy, true, opt.Workers, opt.SLO)
		}
	case Proteus:
		mode = loadbalancer.ModeRandomSplit
		alloc = func() (allocator.Allocator, error) {
			return allocator.NewProteus(e.allocConfig(opt))
		}
	case DiffServeStatic:
		mode = loadbalancer.ModeCascade
		alloc = func() (allocator.Allocator, error) {
			return allocator.NewDiffServeStatic(e.allocConfig(opt), tr.PeakRate())
		}
	case DiffServe:
		mode = loadbalancer.ModeCascade
		alloc = func() (allocator.Allocator, error) {
			return allocator.NewMILP(e.allocConfig(opt))
		}
	case DiffServeStaticThreshold:
		mode = loadbalancer.ModeCascade
		alloc = func() (allocator.Allocator, error) {
			cfg := e.allocConfig(opt)
			// The static-threshold ablation pins the threshold at a
			// peak-survivable deferral level (an operator would choose a
			// value the heavy pool can absorb at peak), so it gives up the
			// off-peak quality headroom DiffServe exploits (§4.5).
			thr := e.Deferral.ThresholdForFraction(0.2)
			cfg.FixedThreshold = &thr
			return allocator.NewMILP(cfg)
		}
	case DiffServeAIMD:
		mode = loadbalancer.ModeCascade
		aimd = true
		alloc = func() (allocator.Allocator, error) {
			return allocator.NewMILP(e.allocConfig(opt))
		}
	case DiffServeNoQueue:
		mode = loadbalancer.ModeCascade
		alloc = func() (allocator.Allocator, error) {
			cfg := e.allocConfig(opt)
			cfg.Queue = allocator.QueueModelTwiceExec
			return allocator.NewMILP(cfg)
		}
	default:
		return nil, fmt.Errorf("baselines: unknown approach %q", app)
	}

	a, err := alloc()
	if err != nil {
		return nil, err
	}
	ctrl, err := controller.New(controller.Config{Alloc: a, AIMD: aimd})
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

type allocfn = func() (allocator.Allocator, error)
