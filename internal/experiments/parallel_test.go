package experiments

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestFig5MatchesPreRefactorGolden renders Figure 5 at the fixed test
// seed and compares it byte-for-byte against the output captured from
// the pre-refactor (serial, batch-moments, uncached-generation)
// implementation. This pins down three properties at once: the
// streaming metrics pipeline reports the same numbers, the generation
// memo is byte-identical, and the parallel fan-out is deterministic.
func TestFig5MatchesPreRefactorGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig5_short_seed777.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 777, Short: true, Parallelism: 4}
	r, err := Fig5(cfg)
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
// and with a saturated worker pool and requires byte-identical
// renders: every run owns its seeded RNG streams, so scheduling must
// not be observable.
func TestFanOutSerialParallelIdentical(t *testing.T) {
	serialCfg := Config{Seed: 777, Short: true, Parallelism: 1}
	parallelCfg := Config{Seed: 777, Short: true, Parallelism: 8}
	serial, err := Fig8(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig8(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
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

// TestFanOutHelper exercises the pool directly: ordering, error
// propagation, and the serial fast path.
func TestFanOutHelper(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		got, err := fanOut(workers, 37, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 37 {
			t.Fatalf("workers=%d: len %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	wantErr := os.ErrInvalid
	for _, workers := range []int{1, 4} {
		_, err := fanOut(workers, 10, func(i int) (int, error) {
			if i >= 3 {
				return 0, wantErr
			}
			return i, nil
		})
		if err != wantErr {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, wantErr)
		}
	}
	if out, err := fanOut(4, 0, func(i int) (int, error) { return 0, nil }); err != nil || len(out) != 0 {
		t.Fatalf("empty fan-out: %v %v", out, err)
	}
}

// TestFig7RenderIsDeterministic pins the render order of Figure 7's
// model pairs: the result keeps them in a map, and ranging over it
// printed the two pair blocks in a different order from run to run, so
// the table could not be diffed. Two blocks of a small map swap in
// about one render in eight; sixty-four renders make a regression all
// but certain to show.
func TestFig7RenderIsDeterministic(t *testing.T) {
	r, err := Fig7(Config{Seed: 777, Short: true, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkPairRender(t, r)
}

// TestFig1RenderIsDeterministic is the same check for Figure 1a's and
// 1b's pair blocks, which were printed in map order too.
func TestFig1RenderIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 777, Short: true, Parallelism: 2}
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
