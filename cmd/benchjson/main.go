// Command benchjson enforces allocation budgets on `go test -bench`
// output.
//
// Usage:
//
//	go test -run '^$' -bench WirePath -benchmem ./... | benchjson -max-allocs 'BenchmarkWirePath/tcp=16'
//
// The benchmark text passes through to stdout unchanged, so the tool
// can sit at the end of a Makefile pipe without hiding the readable
// report. -max-allocs takes comma-separated name=budget pairs (names
// without the -GOMAXPROCS suffix); a named benchmark that is missing
// from the input or exceeds its budget fails the run. The suffix is
// taken to be this process's own GOMAXPROCS, so run the tool where the
// benchmarks ran, as the Makefile pipes do.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// benchResult is one benchmark line's name and allocs/op, -1 when the
// run did not use -benchmem.
type benchResult struct {
	Name        string
	AllocsPerOp int64
}

func main() {
	maxAllocs := flag.String("max-allocs", "", "comma-separated name=budget allocs/op gates, e.g. 'BenchmarkWirePath/tcp=16'")
	flag.Parse()

	budgets, err := parseBudgets(*maxAllocs)
	if err != nil {
		fatal(err)
	}

	var results []benchResult
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // passthrough: keep the readable report
		if r, ok := parseBenchLine(line, runtime.GOMAXPROCS(0)); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	if len(budgets) > 0 {
		if err := gate(results, budgets); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

func parseBudgets(spec string) (map[string]int64, error) {
	budgets := map[string]int64{}
	if spec == "" {
		return budgets, nil
	}
	for _, pair := range strings.Split(spec, ",") {
		// Split at the LAST '=': sub-benchmark names may themselves
		// contain one (BenchmarkControlTickSolve/pools=10=2600).
		pair = strings.TrimSpace(pair)
		cut := strings.LastIndexByte(pair, '=')
		if cut < 0 {
			return nil, fmt.Errorf("bad -max-allocs entry %q (want name=budget)", pair)
		}
		name, val := pair[:cut], pair[cut+1:]
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -max-allocs budget %q: %v", pair, err)
		}
		budgets[name] = n
	}
	return budgets, nil
}

// parseBenchLine parses one `go test -bench` result line:
//
//	BenchmarkWirePath/tcp-8   1234   43210 ns/op   6409 B/op   14 allocs/op
//
// procs is the GOMAXPROCS the benchmarks ran at.
func parseBenchLine(line string, procs int) (benchResult, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return benchResult{}, false
	}
	if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
		return benchResult{}, false
	}
	r := benchResult{Name: trimProcs(f[0], procs), AllocsPerOp: -1}
	for i := 2; i+1 < len(f); i += 2 {
		if f[i+1] == "allocs/op" {
			r.AllocsPerOp, _ = strconv.ParseInt(f[i], 10, 64)
		}
	}
	return r, true
}

// trimProcs drops the -GOMAXPROCS suffix go test appends to each
// benchmark name — exactly that suffix, and none at GOMAXPROCS 1 where
// go test appends none, so a sub-benchmark named "shards-4" keeps its
// own number.
func trimProcs(name string, procs int) string {
	if procs == 1 {
		return name
	}
	return strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
}

// gate enforces the allocs/op budgets. Every named benchmark must be
// present — a gate that silently passes when its benchmark vanished
// is worse than no gate.
func gate(results []benchResult, budgets map[string]int64) error {
	byName := map[string]benchResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	var failures []string
	for name, budget := range budgets {
		r, ok := byName[name]
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf("%s: not found in input", name))
		case r.AllocsPerOp < 0:
			failures = append(failures, fmt.Sprintf("%s: no allocs/op (run with -benchmem)", name))
		case r.AllocsPerOp > budget:
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op exceeds budget %d", name, r.AllocsPerOp, budget))
		default:
			fmt.Fprintf(os.Stderr, "allocs-gate: %s %d allocs/op <= budget %d\n", name, r.AllocsPerOp, budget)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation budget exceeded:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
