package model

import (
	"fmt"
	"sort"

	"diffserve/internal/imagespace"
)

// Variant describes a servable diffusion-model variant: its identity,
// its profiled execution latency, and its calibrated generation
// parameters in the synthetic feature space.
type Variant struct {
	// Name is the registry key (e.g. "sdv15", "sdturbo").
	Name string
	// DisplayName is the human-readable name used in reports.
	DisplayName string
	// Latency is the profiled batch execution latency.
	Latency *Profile
	// Gen holds the feature-space generation parameters.
	Gen imagespace.GenParams
	// LoadSeconds is the time to load the variant onto a worker when
	// the controller re-assigns models.
	LoadSeconds float64
}

// BaseLatency returns the batch-1 execution latency in seconds.
func (v *Variant) BaseLatency() float64 { return v.Latency.Latency(1) }

// DrainGrace is how long past the end of a trace a run keeps serving
// before whatever is still queued counts as dropped: three SLOs plus
// one largest batch on the heavy variant.
func DrainGrace(slo float64, heavy *Variant) float64 {
	return 3*slo + heavy.Latency.Latency(heavy.Latency.MaxBatch())
}

// Registry maps variant names to variants.
type Registry struct {
	variants map[string]*Variant
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{variants: make(map[string]*Variant)}
}

// Register adds a variant. It returns an error on duplicate names or
// invalid parameters.
func (r *Registry) Register(v *Variant) error {
	if v.Name == "" {
		return fmt.Errorf("model: variant name must be non-empty")
	}
	if _, ok := r.variants[v.Name]; ok {
		return fmt.Errorf("model: duplicate variant %q", v.Name)
	}
	if v.Latency == nil {
		return fmt.Errorf("model: variant %q has no latency profile", v.Name)
	}
	if err := v.Gen.Validate(); err != nil {
		return fmt.Errorf("model: variant %q: %w", v.Name, err)
	}
	r.variants[v.Name] = v
	return nil
}

// Get returns the named variant or an error.
func (r *Registry) Get(name string) (*Variant, error) {
	v, ok := r.variants[name]
	if !ok {
		return nil, fmt.Errorf("model: unknown variant %q", name)
	}
	return v, nil
}

// MustGet returns the named variant, panicking if absent. Use only
// with the built-in registry where presence is a program invariant.
func (r *Registry) MustGet(name string) *Variant {
	v, err := r.Get(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Names returns all registered variant names, sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.variants))
	for n := range r.variants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func mustProfile(base, overhead float64) *Profile {
	p, err := LinearProfile(base, overhead, StandardBatchSizes)
	if err != nil {
		panic(err)
	}
	return p
}

// BuiltinRegistry returns the registry of all variants evaluated in
// the paper, with batch-1 latencies matching the reported A100-80GB
// measurements (SDv1.5 ≈ 1.78 s, SD-Turbo ≈ 0.1 s, SDXS ≈ 0.05 s,
// SDXL-Lightning ≈ 0.5 s, SDXL ≈ 6 s) and batch-scaling overheads set
// so SDXL is ≈ 4.6× slower than SDXL-Lightning at batch 16 (§1 of the
// paper). Generation parameters are calibrated so standalone FIDs land
// near the paper's figures (see calibration tests).
func BuiltinRegistry() *Registry {
	r := NewRegistry()
	add := func(v *Variant) {
		if err := r.Register(v); err != nil {
			panic(err)
		}
	}

	// Cascade 1 & 2 heavyweight: Stable Diffusion v1.5, 50 steps.
	add(&Variant{
		Name: "sdv15", DisplayName: "SDv1.5",
		Latency: mustProfile(1.78, 0.62),
		Gen: imagespace.GenParams{
			ArtifactBase: 4.00, ArtifactSlope: 0.90, ArtifactNoise: 0.35,
			DirSkew: 0.05, DirAxis: 1, Contraction: 0.93, NoiseStd: 0.18,
		},
		LoadSeconds: 8,
	})

	// Cascade 1 lightweight: SD-Turbo, 1 step.
	add(&Variant{
		Name: "sdturbo", DisplayName: "SD-Turbo",
		Latency: mustProfile(0.10, 0.35),
		Gen: imagespace.GenParams{
			ArtifactBase: 2.90, ArtifactSlope: 5.50, ArtifactNoise: 0.55,
			DirSkew: 0.28, DirAxis: 2, Contraction: 0.88, NoiseStd: 0.30,
		},
		LoadSeconds: 3,
	})

	// Cascade 2 lightweight: SDXS-512-0.9, 1 step.
	add(&Variant{
		Name: "sdxs", DisplayName: "SDXS",
		Latency: mustProfile(0.05, 0.30),
		Gen: imagespace.GenParams{
			ArtifactBase: 3.00, ArtifactSlope: 5.60, ArtifactNoise: 0.60,
			DirSkew: 0.34, DirAxis: 3, Contraction: 0.85, NoiseStd: 0.35,
		},
		LoadSeconds: 3,
	})

	// Cascade 3 heavyweight: SDXL, 50 steps, 1024x1024.
	add(&Variant{
		Name: "sdxl", DisplayName: "SDXL",
		Latency: mustProfile(6.0, 0.70),
		Gen: imagespace.GenParams{
			ArtifactBase: 4.20, ArtifactSlope: 0.80, ArtifactNoise: 0.35,
			DirSkew: 0.05, DirAxis: 1, Contraction: 0.92, NoiseStd: 0.20,
		},
		LoadSeconds: 15,
	})

	// Cascade 3 lightweight: SDXL-Lightning, 2 steps, 1024x1024.
	add(&Variant{
		Name: "sdxl-lightning", DisplayName: "SDXL-Lightning",
		Latency: mustProfile(0.50, 0.10),
		Gen: imagespace.GenParams{
			ArtifactBase: 3.60, ArtifactSlope: 5.00, ArtifactNoise: 0.55,
			DirSkew: 0.30, DirAxis: 2, Contraction: 0.87, NoiseStd: 0.30,
		},
		LoadSeconds: 6,
	})

	// Independent variants shown in the Fig 1a scatter.
	add(&Variant{
		Name: "sdv15-dpms", DisplayName: "SDv1.5 (DPMS++)",
		Latency: mustProfile(0.75, 0.55),
		Gen: imagespace.GenParams{
			ArtifactBase: 4.05, ArtifactSlope: 1.30, ArtifactNoise: 0.40,
			DirSkew: 0.08, DirAxis: 1, Contraction: 0.92, NoiseStd: 0.20,
		},
		LoadSeconds: 8,
	})
	add(&Variant{
		Name: "sdxl-turbo", DisplayName: "SDXL-Turbo",
		Latency: mustProfile(0.15, 0.35),
		Gen: imagespace.GenParams{
			ArtifactBase: 3.40, ArtifactSlope: 3.60, ArtifactNoise: 0.50,
			DirSkew: 0.22, DirAxis: 2, Contraction: 0.89, NoiseStd: 0.28,
		},
		LoadSeconds: 4,
	})
	add(&Variant{
		Name: "tinysd-dpms", DisplayName: "TinySD (DPMS++)",
		Latency: mustProfile(0.40, 0.45),
		Gen: imagespace.GenParams{
			ArtifactBase: 3.90, ArtifactSlope: 3.80, ArtifactNoise: 0.55,
			DirSkew: 0.26, DirAxis: 3, Contraction: 0.88, NoiseStd: 0.30,
		},
		LoadSeconds: 3,
	})

	return r
}

// CascadeSpec names a light–heavy pair evaluated in the paper and its
// SLO.
type CascadeSpec struct {
	// Name is the cascade key ("cascade1", "cascade2", "cascade3").
	Name string
	// Light and Heavy are variant registry names.
	Light, Heavy string
	// SLOSeconds is the latency deadline for the cascade's experiments.
	SLOSeconds float64
}

// BuiltinCascades returns the three cascades of the paper's evaluation.
func BuiltinCascades() []CascadeSpec {
	return []CascadeSpec{
		{Name: "cascade1", Light: "sdturbo", Heavy: "sdv15", SLOSeconds: 5},
		{Name: "cascade2", Light: "sdxs", Heavy: "sdv15", SLOSeconds: 5},
		{Name: "cascade3", Light: "sdxl-lightning", Heavy: "sdxl", SLOSeconds: 15},
	}
}

// CascadeByName returns the named builtin cascade spec.
func CascadeByName(name string) (CascadeSpec, error) {
	for _, c := range BuiltinCascades() {
		if c.Name == name {
			return c, nil
		}
	}
	return CascadeSpec{}, fmt.Errorf("model: unknown cascade %q", name)
}
