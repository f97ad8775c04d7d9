package experiments

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"testing"
)

// TestFig5MatchesPreRefactorGolden renders Figure 5 at the fixed test
// seed and compares it byte-for-byte against the output captured from
// the pre-refactor (serial, batch-moments, uncached-generation)
// implementation. This pins down three properties at once: the
// streaming metrics pipeline reports the same numbers, the generation
// memo is byte-identical, and the parallel fan-out (4 wide here) is
// deterministic.
func TestFig5MatchesPreRefactorGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	want, err := os.ReadFile("testdata/fig5_short_seed777.golden")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Fig5(Config{Seed: 777, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	r.Render(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Fig5 render diverged from pre-refactor golden.\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestFanOutSerialParallelIdentical runs the same experiment serially
// (GOMAXPROCS 1) and with a saturated worker pool (GOMAXPROCS 8) and
// requires byte-identical renders: every run owns its seeded RNG
// streams, so scheduling must not be observable.
func TestFanOutSerialParallelIdentical(t *testing.T) {
	fig8At := func(procs int) *Fig8Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r, err := Fig8(Config{Seed: 777, Short: true})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial, parallel := fig8At(1), fig8At(8)
	var a, b bytes.Buffer
	serial.Render(&a)
	parallel.Render(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("Fig8 serial and parallel runs diverged.\nserial:\n%s\nparallel:\n%s", a.Bytes(), b.Bytes())
	}
	if len(serial.Summaries) != len(parallel.Summaries) {
		t.Fatalf("summary counts differ: %d vs %d", len(serial.Summaries), len(parallel.Summaries))
	}
	for i := range serial.Summaries {
		if serial.Summaries[i] != parallel.Summaries[i] {
			t.Errorf("summary %d differs: %+v vs %+v", i, serial.Summaries[i], parallel.Summaries[i])
		}
	}
}

// TestFig7RenderIsDeterministic pins the render order of Figure 7's
// model pairs: the result keeps them in a map, and ranging over it
// printed the two pair blocks in a different order from run to run, so
// the table could not be diffed. Two blocks of a small map swap in
// about one render in eight; sixty-four renders make a regression all
// but certain to show.
func TestFig7RenderIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	r, err := Fig7(Config{Seed: 777, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	checkPairRender(t, r)
}

// TestFig1RenderIsDeterministic is the same check for Figure 1a's and
// 1b's pair blocks, which were printed in map order too.
func TestFig1RenderIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := Config{Seed: 777, Short: true}
	a, err := Fig1a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPairRender(t, a)
	b, err := Fig1b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPairRender(t, b)
}

// checkPairRender renders r sixty-four times: every render must match
// the first, and the sdturbo pair's block must come before the sdxs one's.
func checkPairRender(t *testing.T, r interface{ Render(io.Writer) }) {
	t.Helper()
	var first bytes.Buffer
	r.Render(&first)
	for i := 1; i < 64; i++ {
		var again bytes.Buffer
		r.Render(&again)
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("render %d of one %T differs from the first.\nfirst:\n%s\nthen:\n%s", i+1, r, first.Bytes(), again.Bytes())
		}
	}
	turbo := bytes.Index(first.Bytes(), []byte("pair sdturbo+sdv15"))
	sdxs := bytes.Index(first.Bytes(), []byte("pair sdxs+sdv15"))
	if turbo < 0 || sdxs < 0 || turbo > sdxs {
		t.Errorf("%T: pairs are not rendered in sorted order:\n%s", r, first.Bytes())
	}
}
