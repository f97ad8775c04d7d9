package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// stamp says what produced a result, so two documents can be told
// apart before they are compared.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func newStamp() stamp {
	s := stamp{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown",
	}
	// `go build` stamps the binary with the commit when it runs inside a
	// git checkout; `go run` and an exported tree leave it out.
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				dirty = kv.Value == "true"
			}
		}
		if dirty && s.Commit != "unknown" {
			s.Commit += "-dirty"
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return s
}

// document is what -all prints and -compare reads.
type document struct {
	Stamp     stamp              `json:"stamp"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Repeat    int                `json:"repeat"`
	Workloads map[string]*result `json:"workloads"`
}

func (d *document) correct() bool {
	for _, r := range d.Workloads {
		if !r.Correct {
			return false
		}
	}
	return true
}

// writeResultFile leaves one run's stamped result under the out directory.
func writeResultFile(cfg runCfg, workload string, res *result) error {
	doc := document{
		Stamp: newStamp(), Seed: cfg.seed, Seconds: cfg.seconds, Repeat: 1,
		Workloads: map[string]*result{workload: res},
	}
	name := "result-" + workload + ".json"
	if cfg.traced {
		doc.Trace = 1
		name = "result-" + workload + "-traced.json"
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, name), append(data, '\n'), 0o644)
}

// runAll runs every workload repeat times, each run in a fresh process
// (a run must not inherit another's warm image cache or heap) with seed
// cfg.seed + i, and folds the runs into medians and spreads.
func runAll(cfg runCfg, repeat int) (*document, error) {
	if repeat < 1 {
		return nil, fmt.Errorf("-repeat must be at least 1, got %d", repeat)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := 0
	if cfg.traced {
		trace = 1
	}
	doc := &document{
		Stamp: newStamp(), Seed: cfg.seed, Seconds: cfg.seconds, Trace: trace, Repeat: repeat,
		Workloads: map[string]*result{},
	}
	for _, name := range workloadNames {
		runs := make([]*result, 0, repeat)
		for i := 0; i < repeat; i++ {
			cmd := exec.Command(self, "-workload", name,
				"-seed", strconv.FormatUint(cfg.seed+uint64(i), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace), "-out", cfg.outDir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if len(bytes.TrimSpace(stdout)) == 0 {
				return nil, fmt.Errorf("%s run %d printed no result: %v", name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return nil, fmt.Errorf("%s run %d: last line is not a result: %w", name, i, err)
			}
			fmt.Fprintf(os.Stderr, "benchmark: %s run %d/%d seed %d: correct=%v failed=%d/%d\n",
				name, i+1, repeat, cfg.seed+uint64(i), res.Correct, res.Failed, res.Attempted)
			runs = append(runs, &res)
		}
		doc.Workloads[name] = fold(runs)
	}
	return doc, nil
}

// fold merges the runs of one workload: counts add up, and each metric
// becomes the median of its values with their spread beside it.
func fold(runs []*result) *result {
	if len(runs) == 1 {
		return runs[0]
	}
	out := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	for name, first := range runs[0].Metrics {
		vals := make([]float64, 0, len(runs))
		for _, r := range runs {
			vals = append(vals, r.Metrics[name].Value)
		}
		med, spread := medianSpread(vals)
		out.Metrics[name] = metricValue{Value: med, Unit: first.Unit, Spread: &spread, Values: vals}
	}
	return out
}

// medianSpread is the median of vals and the distance between their
// first and third quartile as a share of it — the quartiles Python's
// statistics.quantiles(vals, n=4) gives (exclusive method).
func medianSpread(vals []float64) (median, spread float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := int(pos)
		switch {
		case pos <= 0:
			return s[0]
		case lo >= len(s)-1:
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	median = at(0.5)
	if len(s) < 2 || median == 0 {
		return median, 0
	}
	return median, (at(0.75) - at(0.25)) / abs64(median)
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareFiles prints, for every workload and end-to-end metric, how
// much worse the new document is than the base, against the metric's
// bound, and returns the number of breaches: a worsening beyond the
// bound, a spread beyond it (the metric is then unresolved, not
// unchanged), or a workload that is missing or incorrect.
func compareFiles(w io.Writer, basePath, newPath string) (int, error) {
	load := func(path string) (*document, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var d document
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &d, nil
	}
	base, err := load(basePath)
	if err != nil {
		return 0, err
	}
	cur, err := load(newPath)
	if err != nil {
		return 0, err
	}
	if base.Trace != 0 || cur.Trace != 0 {
		return 0, fmt.Errorf("-compare needs untraced documents: end-to-end metrics are measured with tracing off")
	}
	if base.Seconds != cur.Seconds {
		return 0, fmt.Errorf("documents differ in run size: -seconds %v vs %v", base.Seconds, cur.Seconds)
	}
	fmt.Fprintf(w, "base %s (%s, %d runs)  new %s (%s, %d runs)\n",
		base.Stamp.Commit, base.Stamp.CPUModel, base.Repeat, cur.Stamp.Commit, cur.Stamp.CPUModel, cur.Repeat)
	fmt.Fprintf(w, "%-18s %-15s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "base", "new", "worse", "bound", "spread", "verdict")
	breaches := 0
	for _, name := range workloadNames {
		b, c := base.Workloads[name], cur.Workloads[name]
		if b == nil || c == nil || !b.Correct || !c.Correct {
			fmt.Fprintf(w, "%-18s missing or incorrect in one document\n", name)
			breaches++
			continue
		}
		for _, d := range endToEnd {
			bv, cv := b.Metrics[d.Name], c.Metrics[d.Name]
			worse := 0.0
			if bv.Value != 0 {
				worse = (cv.Value - bv.Value) / abs64(bv.Value)
				if d.Better == "higher" {
					worse = -worse
				}
			}
			spread := 0.0
			for _, s := range []*float64{bv.Spread, cv.Spread} {
				if s != nil && *s > spread {
					spread = *s
				}
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "WORSE"
				breaches++
			case spread > d.Bound && d.Name != "setup_s":
				verdict = "UNRESOLVED"
				breaches++
			}
			fmt.Fprintf(w, "%-18s %-15s %14.6g %14.6g %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				name, d.Name, bv.Value, cv.Value, 100*worse, 100*d.Bound, 100*spread, verdict)
		}
	}
	return breaches, nil
}
