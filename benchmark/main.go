// Command benchmark is the repo's end-to-end benchmark: five workloads
// that drive the system from outside through its public functions, a
// fixed list of end-to-end metrics measured with tracing off, and a
// traced run of the same workloads that yields the per-layer metrics.
// README.md in this directory has the tables; BENCHMARK.json at the
// repo root is the machine-readable contract.
//
//	go run ./benchmark -workload dataplane_tcp            # one workload
//	go run ./benchmark -workload control_tick -trace 1    # its per-layer metrics
//	go run ./benchmark -all -repeat 10 -o a.json          # a set, medians and spreads
//	go run ./benchmark -compare a.json b.json             # b against a, per bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"diffserve/internal/cluster"
)

// runCfg is one run's arguments.
type runCfg struct {
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
	// setupRepeats is how many times the run sets up (setupRepeats;
	// the smoke test sets up once).
	setupRepeats int
}

// outcome is what a workload hands back: operations attempted and
// failed, failed correctness checks, and metric values by name.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	spans             *tracer // nil when untraced
}

func (o *outcome) problemf(format string, args ...interface{}) {
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runCfg) (*outcome, error){
	wlDataplaneTCP: func(c runCfg) (*outcome, error) {
		return runDataplane(c, cluster.TransportTCP, 0)
	},
	wlDataplaneSharded: func(c runCfg) (*outcome, error) {
		return runDataplane(c, cluster.TransportInproc, dataplaneShards)
	},
	wlControlTick:  runControlTick,
	wlSimReplay:    runSimReplay,
	wlClusterTrace: runClusterTrace,
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Set by -all -repeat: Value is then the median of Values and
	// Spread their interquartile range over that median.
	Spread *float64  `json:"spread,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs one workload in this process and shapes its outcome
// into a result: every end-to-end metric untraced, every per-layer
// metric traced.
func runWorkload(name string, cfg runCfg) (*result, error) {
	fn, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	out, err := fn(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		path, err := out.spans.write(cfg.outDir, name)
		if err != nil {
			return nil, fmt.Errorf("%s: writing spans: %w", name, err)
		}
		out.metrics["bench.traced_ops_per_s"] = out.metrics["ops_per_s"]
		out.metrics["bench.trace_overhead_ratio"] = out.spans.overheadRatio()
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d spans, the first %d in %s\n", name, len(out.spans.spans), min(len(out.spans.spans), maxDumpSpans), path)
	}
	res := &result{
		Correct: len(out.problems) == 0 && out.attempted > 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: check failed: %s\n", name, p)
	}
	for _, d := range defs {
		v, have := out.metrics[d.Name]
		if !have && !cfg.traced {
			return nil, fmt.Errorf("%s: end-to-end metric %s not measured", name, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", name, d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: one of "+fmt.Sprint(workloadNames))
	all := fs.Bool("all", false, "run every workload, each in a fresh process, and print one document")
	seed := fs.Uint64("seed", 20250610, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 10, "size of the run: each workload does a fixed amount of work that takes about this long on the reference box")
	trace := fs.Int("trace", 0, "1 records a span around every call into a layer and reports the per-layer metrics; 0 reports the end-to-end metrics")
	repeat := fs.Int("repeat", 1, "with -all: runs per workload, each with its own seed; the document holds medians and spreads")
	outFile := fs.String("o", "", "with -all: also write the document to this file")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for span dumps and result files")
	compare := fs.Bool("compare", false, "compare two -all documents: benchmark -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: *outDir, setupRepeats: setupRepeats}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two files, got %d", fs.NArg()))
		}
		breaches, err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if breaches > 0 {
			return 1
		}
		return 0
	case *all:
		doc, err := runAll(cfg, *repeat)
		if err != nil {
			return fail(err)
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fail(err)
		}
		data = append(data, '\n')
		if *outFile != "" {
			if err := os.WriteFile(*outFile, data, 0o644); err != nil {
				return fail(err)
			}
		}
		os.Stdout.Write(data)
		if !doc.correct() {
			return 1
		}
		return 0
	case *workload != "":
		if cfg.seconds <= 0 {
			return fail(fmt.Errorf("-seconds must be positive, got %v", cfg.seconds))
		}
		res, err := runWorkload(*workload, cfg)
		if err != nil {
			return fail(err)
		}
		if err := writeResultFile(cfg, *workload, res); err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			return 1
		}
		return 0
	}
	fs.Usage()
	return 2
}
