package diffserve

import (
	"fmt"
	"io"
	"sort"

	"diffserve/internal/experiments"
)

// ExperimentConfig sizes experiment reproduction runs.
type ExperimentConfig struct {
	// Seed drives all randomness (default 20250610).
	Seed uint64
	// Queries is the offline evaluation set size (default 5000).
	Queries int
	// Workers is the cluster size (default 16).
	Workers int
	// TraceDurationSeconds is the dynamic trace length (default 360).
	TraceDurationSeconds float64
	// Short shrinks everything for quick runs.
	Short bool
}

func (c ExperimentConfig) internal() experiments.Config {
	return experiments.Config{
		Seed:          c.Seed,
		Queries:       c.Queries,
		Workers:       c.Workers,
		TraceDuration: c.TraceDurationSeconds,
		Short:         c.Short,
	}
}

// renderable is an experiment result that can print itself.
type renderable interface{ Render(io.Writer) }

// experimentRunners maps experiment names to their runners.
var experimentRunners = map[string]func(experiments.Config) (renderable, error){
	"fig1a": func(c experiments.Config) (renderable, error) { return experiments.Fig1a(c) },
	"fig1b": func(c experiments.Config) (renderable, error) { return experiments.Fig1b(c) },
	"fig1c": func(c experiments.Config) (renderable, error) { return experiments.Fig1c(c) },
	"fig4":  func(c experiments.Config) (renderable, error) { return experiments.Fig4(c) },
	"fig5":  func(c experiments.Config) (renderable, error) { return experiments.Fig5(c) },
	"fig6":  func(c experiments.Config) (renderable, error) { return experiments.Fig6(c) },
	"fig7":  func(c experiments.Config) (renderable, error) { return experiments.Fig7(c) },
	"fig8":  func(c experiments.Config) (renderable, error) { return experiments.Fig8(c) },
	"fig9":  func(c experiments.Config) (renderable, error) { return experiments.Fig9(c) },
	"milp":  func(c experiments.Config) (renderable, error) { return experiments.MILPOverhead(c) },
	"sim-vs-cluster": func(c experiments.Config) (renderable, error) {
		return experiments.SimVsCluster(c)
	},
	"reuse": func(c experiments.Config) (renderable, error) {
		return experiments.ReuseStudy(c)
	},
	"multilevel": func(c experiments.Config) (renderable, error) {
		return experiments.MultiLevelStudy(c)
	},
}

// ExperimentNames lists all runnable experiments, sorted, including
// "table1" and the meta-experiment "all".
func ExperimentNames() []string {
	names := []string{"table1"}
	for n := range experimentRunners {
		names = append(names, n)
	}
	sort.Strings(names)
	return append(names, "all")
}

// RunExperiment regenerates the named table or figure of the paper and
// renders it to w. Name "all" runs everything in order.
func RunExperiment(name string, cfg ExperimentConfig, w io.Writer) error {
	if name == "all" {
		for _, n := range ExperimentNames() {
			if n == "all" {
				continue
			}
			if err := RunExperiment(n, cfg, w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	if name == "table1" {
		experiments.RenderTable1(w)
		return nil
	}
	run, ok := experimentRunners[name]
	if !ok {
		return fmt.Errorf("diffserve: unknown experiment %q (have %v)", name, ExperimentNames())
	}
	res, err := run(cfg.internal())
	if err != nil {
		return fmt.Errorf("diffserve: experiment %s: %w", name, err)
	}
	res.Render(w)
	return nil
}
