package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSeconds is 1/100 of BENCHMARK.json's run_seconds.
const smokeSeconds = 0.10

// TestWorkloadsSmoke runs every workload at 1/100 size, untraced and
// traced, and asserts that the correctness checks pass, that no
// operation failed, and that every named metric is there and finite.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runCfg{seed: 20250610, seconds: smokeSeconds, traced: traced, outDir: t.TempDir(), setupRepeats: 1}
			res, err := runWorkload(name, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+name+".jsonl")); err != nil {
					t.Errorf("%s: no span dump: %v", name, err)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit:
					t.Errorf("%s traced=%v: metric %s = %v %q", name, traced, d.Name, v.Value, v.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, v.Value)
				}
			}
			if traced && res.Metrics["bench.span_coverage"].Value < 0.9 {
				t.Errorf("%s: spans cover %v of the run", name, res.Metrics["bench.span_coverage"].Value)
			}
		}
	}
}

// TestBenchmarkJSONMatchesDefs keeps BENCHMARK.json and defs.go the
// same list.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if float64(doc.RunSeconds) != smokeSeconds*100 {
		t.Errorf("run_seconds %d, smoke test assumes %v", doc.RunSeconds, smokeSeconds*100)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || !strings.HasPrefix(doc.Command[len(doc.Command)-1], "benchmark/") {
		t.Errorf("paths %v command %v", doc.Paths, doc.Command)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q, want %q with a one-line why", i, w.Name, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want %d and %d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if g := doc.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, g, d)
		}
	}
	for i, d := range perLayer {
		if g := doc.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, g, d)
		}
	}
}

func TestMedianSpread(t *testing.T) {
	// statistics.quantiles([...], n=4) gives [2.75, 5.5, 8.25] here.
	med, spread := medianSpread([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if med != 5.5 || math.Abs(spread-1) > 1e-12 {
		t.Errorf("median %v spread %v, want 5.5 and 1", med, spread)
	}
}

// TestCompare checks that -compare passes a document against itself
// and flags a worsening beyond the bound, in the metric's direction.
func TestCompare(t *testing.T) {
	mk := func(opsPerS, latency float64) *document {
		d := &document{Repeat: 1, Seconds: 15, Workloads: map[string]*result{}}
		for _, name := range workloadNames {
			r := &result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
			for _, def := range endToEnd {
				r.Metrics[def.Name] = metricValue{Value: 1, Unit: def.Unit}
			}
			r.Metrics["ops_per_s"] = metricValue{Value: opsPerS, Unit: "1/s"}
			r.Metrics["latency_ms_mean"] = metricValue{Value: latency, Unit: "ms"}
			d.Workloads[name] = r
		}
		return d
	}
	dir := t.TempDir()
	write := func(name string, d *document) string {
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(1000, 2))
	for _, c := range []struct {
		name     string
		doc      *document
		breaches int
	}{
		{"same", mk(1000, 2), 0},
		{"faster", mk(2000, 1), 0},
		{"within-bound", mk(900, 2.2), 0},
		{"slower", mk(700, 2), len(workloadNames)},
		{"later", mk(1000, 2.6), len(workloadNames)},
	} {
		var out bytes.Buffer
		got, err := compareFiles(&out, base, write(c.name+".json", c.doc))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.breaches {
			t.Errorf("%s: %d breaches, want %d\n%s", c.name, got, c.breaches, out.String())
		}
	}
}
