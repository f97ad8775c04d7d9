package experiments_test

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"testing"

	"diffserve"
)

// milpWallTime is the part of milp's one line that is wall time: the
// solves' mean and p99 duration. Its golden pins the rest, the solve
// count, and `make goldens` masks the same text.
var milpWallTime = regexp.MustCompile(`mean [0-9.]+ ms, p99 [0-9.]+ ms`)

// TestExperimentGoldens renders every experiment but sim-vs-cluster
// (its cluster side runs on the wall clock) at -short -seed 4242
// through diffserve.RunExperiment, the code diffserve-sim calls, and
// holds each render byte for byte to
// testdata/<name>_short_seed4242.golden. Every render is the same at
// any GOMAXPROCS; `go test -cpu 1,2 -run TestExperimentGoldens` checks
// two. `make goldens` regenerates the files with diffserve-sim; a
// change that moves one names every changed row in CHANGES.md.
func TestExperimentGoldens(t *testing.T) {
	for _, name := range diffserve.ExperimentNames() {
		if name == "all" || name == "sim-vs-cluster" {
			continue
		}
		want, err := os.ReadFile(fmt.Sprintf("testdata/%s_short_seed4242.golden", name))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := diffserve.RunExperiment(name, diffserve.ExperimentConfig{Seed: 4242, Short: true}, &buf); err != nil {
			t.Fatal(err)
		}
		got := buf.Bytes()
		if name == "milp" {
			got = milpWallTime.ReplaceAll(got, []byte("mean - ms, p99 - ms"))
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s at GOMAXPROCS %d diverged from its golden.\ngot:\n%s\nwant:\n%s", name, runtime.GOMAXPROCS(0), got, want)
		}
	}
}
