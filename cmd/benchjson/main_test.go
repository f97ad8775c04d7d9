package main

import (
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkWirePath/tcp-8   \t 1234\t     43210 ns/op\t    6409 B/op\t      14 allocs/op", 8)
	if !ok {
		t.Fatal("line not recognized")
	}
	want := benchResult{Name: "BenchmarkWirePath/tcp", AllocsPerOp: 14}
	if r != want {
		t.Fatalf("parsed %+v, want %+v", r, want)
	}

	// Without -benchmem the allocs column is absent, not zero.
	r, ok = parseBenchLine("BenchmarkRingLookup-8   999   55.5 ns/op", 8)
	if !ok || r.AllocsPerOp != -1 {
		t.Fatalf("parsed %+v", r)
	}

	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tdiffserve/internal/cluster\t4.2s",
		"--- BENCH: BenchmarkX",
		"BenchmarkBroken notanumber 1 ns/op",
		"",
	} {
		if _, ok := parseBenchLine(line, 8); ok {
			t.Fatalf("non-result line parsed: %q", line)
		}
	}
}

func TestTrimProcs(t *testing.T) {
	for _, tc := range []struct {
		in    string
		procs int
		want  string
	}{
		{"BenchmarkWirePath/tcp-8", 8, "BenchmarkWirePath/tcp"},
		{"BenchmarkWirePath/tcp-16", 16, "BenchmarkWirePath/tcp"},
		{"BenchmarkFig5", 8, "BenchmarkFig5"},
		{"BenchmarkX/sub-case", 8, "BenchmarkX/sub-case"},
		// A sub-benchmark's own trailing number is not the suffix: at
		// GOMAXPROCS 1 go test appends nothing, elsewhere it appends
		// after it.
		{"BenchmarkX/shards-4", 1, "BenchmarkX/shards-4"},
		{"BenchmarkX/shards-4-2", 2, "BenchmarkX/shards-4"},
		{"BenchmarkX/shards-2-2", 2, "BenchmarkX/shards-2"},
		{"BenchmarkX/pools=10-2", 2, "BenchmarkX/pools=10"},
	} {
		if got := trimProcs(tc.in, tc.procs); got != tc.want {
			t.Errorf("trimProcs(%q, %d) = %q, want %q", tc.in, tc.procs, got, tc.want)
		}
	}
}

func TestGate(t *testing.T) {
	results := []benchResult{
		{Name: "BenchmarkWirePath/tcp", AllocsPerOp: 14},
		{Name: "BenchmarkWirePath/json", AllocsPerOp: 552},
		{Name: "BenchmarkNoMem", AllocsPerOp: -1},
	}
	if err := gate(results, map[string]int64{"BenchmarkWirePath/tcp": 16}); err != nil {
		t.Fatalf("within budget but failed: %v", err)
	}
	if err := gate(results, map[string]int64{"BenchmarkWirePath/tcp": 13}); err == nil {
		t.Fatal("over budget but passed")
	}
	if err := gate(results, map[string]int64{"BenchmarkGone": 1}); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("missing benchmark must fail the gate, got %v", err)
	}
	if err := gate(results, map[string]int64{"BenchmarkNoMem": 1}); err == nil || !strings.Contains(err.Error(), "-benchmem") {
		t.Fatalf("missing allocs column must fail the gate, got %v", err)
	}
}

func TestParseBudgets(t *testing.T) {
	b, err := parseBudgets("BenchmarkWirePath/tcp=16, BenchmarkWirePath/inproc=8")
	if err != nil || b["BenchmarkWirePath/tcp"] != 16 || b["BenchmarkWirePath/inproc"] != 8 {
		t.Fatalf("parseBudgets = %v, %v", b, err)
	}
	if _, err := parseBudgets("nobudget"); err == nil {
		t.Fatal("malformed spec accepted")
	}
	// Sub-benchmark names may contain '=' themselves; the budget is
	// after the LAST one.
	if b, err := parseBudgets("BenchmarkControlTickSolve/pools=10=2600"); err != nil || b["BenchmarkControlTickSolve/pools=10"] != 2600 {
		t.Fatalf("name-with-equals spec: %v, %v", b, err)
	}
	if _, err := parseBudgets("x=abc"); err == nil {
		t.Fatal("non-numeric budget accepted")
	}
	if b, err := parseBudgets(""); err != nil || len(b) != 0 {
		t.Fatalf("empty spec: %v, %v", b, err)
	}
}
