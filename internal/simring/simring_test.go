package simring

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestTypedHeapPopOrderMatchesReference pushes a large randomized
// schedule (with many duplicate timestamps to exercise FIFO
// tie-breaking) and checks the typed heap pops events in exactly the
// (at, seq) order a stable sort produces — the same total order the
// old container/heap adapter guaranteed.
func TestTypedHeapPopOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	s := New()
	type stamp struct {
		at  float64
		idx int
	}
	const n = 5000
	want := make([]stamp, 0, n)
	got := make([]stamp, 0, n)
	for i := 0; i < n; i++ {
		at := float64(rng.Intn(200)) / 4 // heavy duplication
		i := i
		want = append(want, stamp{at: at, idx: i})
		s.At(at, func() { got = append(got, stamp{at: s.Now(), idx: i}) })
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
	if ran := s.Drain(); ran != n {
		t.Fatalf("Drain ran %d of %d", ran, n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTypedHeapInterleavedPushPop interleaves scheduling with
// execution so sift-down paths from mid-heap states get exercised.
func TestTypedHeapInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := New()
	executed := 0
	var last float64
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			at := s.Now() + rng.Float64()*10
			s.At(at, func() {
				if s.Now() < last {
					t.Errorf("event time went backwards: %v after %v", s.Now(), last)
				}
				last = s.Now()
				executed++
			})
		}
		s.Run(s.Now() + 5)
	}
	s.Drain()
	if executed != 50*40 {
		t.Errorf("executed %d of %d", executed, 50*40)
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 10 {
		t.Errorf("Now = %v, want horizon 10", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(1, func() { order = append(order, i) })
	}
	s.Run(1)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of scheduling order: %v", order)
		}
	}
}

func TestRunHorizon(t *testing.T) {
	s := New()
	ran := []float64{}
	s.At(1, func() { ran = append(ran, 1) })
	s.At(5, func() { ran = append(ran, 5) })
	n := s.Run(3)
	if n != 1 || len(ran) != 1 {
		t.Errorf("Run(3) executed %d events: %v", n, ran)
	}
	if len(s.events) != 1 {
		t.Errorf("Pending = %d", len(s.events))
	}
	// Event exactly at the horizon still runs.
	n = s.Run(5)
	if n != 1 || len(ran) != 2 {
		t.Errorf("horizon-inclusive run failed: %v", ran)
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := New()
	var times []float64
	s.At(1, func() {
		times = append(times, s.Now())
		s.At(s.Now()+2, func() { times = append(times, s.Now()) })
	})
	s.Run(10)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v", times)
	}
}

func TestDrain(t *testing.T) {
	s := New()
	count := 0
	s.At(100, func() { count++ })
	s.At(1e6, func() { count++ })
	if n := s.Drain(); n != 2 || count != 2 {
		t.Errorf("Drain ran %d", n)
	}
	if n := s.Drain(); n != 0 {
		t.Errorf("second Drain ran %d, want 0", n)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.Run(5)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	s.At(1, func() {})
}

func TestInvalidTimesPanics(t *testing.T) {
	s := New()
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("time %v should panic", bad)
				}
			}()
			s.At(bad, func() {})
		}()
	}
}

func TestClockMonotoneAcrossRuns(t *testing.T) {
	s := New()
	s.Run(5)
	if s.Now() != 5 {
		t.Errorf("Now = %v", s.Now())
	}
	s.Run(3) // horizon behind clock: no-op
	if s.Now() != 5 {
		t.Errorf("clock moved backwards: %v", s.Now())
	}
}

// TestArrivalStreamMatchesScheduledArrivals runs one random schedule
// twice: once with every arrival scheduled through At before anything
// else, as the simulator used to, and once with the arrivals as a
// stream. Callbacks schedule follow-up events (some at their own
// instant), and both runs must execute the same callbacks at the same
// times in the same order.
func TestArrivalStreamMatchesScheduledArrivals(t *testing.T) {
	type stamp struct {
		at  float64
		tag int // arrival index, or -1 - event number
	}
	arrivals := make([]float64, 3000)
	rng := rand.New(rand.NewSource(5))
	for i := range arrivals {
		arrivals[i] = float64(rng.Intn(400)) / 8 // many equal times
	}
	sort.Float64s(arrivals)
	run := func(stream bool) []stamp {
		s := New()
		var got []stamp
		rng := rand.New(rand.NewSource(6))
		events := 0
		var follow func()
		follow = func() {
			got = append(got, stamp{s.Now(), -1 - events})
			events++
			if rng.Intn(3) == 0 {
				s.At(s.Now()+float64(rng.Intn(3))/8, follow)
			}
		}
		arrive := func(i int) {
			got = append(got, stamp{s.Now(), i})
			if rng.Intn(2) == 0 {
				s.At(s.Now()+float64(rng.Intn(4))/8, follow)
			}
		}
		if stream {
			s.Arrivals(arrivals, arrive)
		} else {
			for i, at := range arrivals {
				i := i
				s.At(at, func() { arrive(i) })
			}
		}
		for t := 0.5; t <= 50; t += 5 { // ticks, after every arrival
			s.At(t, follow)
		}
		s.Run(25)
		s.Drain()
		return got
	}
	want, got := run(false), run(true)
	if len(got) != len(want) {
		t.Fatalf("stream ran %d callbacks, scheduled arrivals %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("callback %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestArrivalStreamOrder pins the stream's order: an arrival runs
// before an At event at the same instant, even one scheduled before
// the stream was set; equal arrival times run in index order; Run
// leaves an arrival past its horizon for Drain; and Now never goes
// back.
func TestArrivalStreamOrder(t *testing.T) {
	s := New()
	var order []string
	last := 0.0
	note := func(what string) {
		if s.Now() < last {
			t.Errorf("%s at %v after %v: clock went back", what, s.Now(), last)
		}
		last = s.Now()
		order = append(order, fmt.Sprintf("%s@%g", what, s.Now()))
	}
	s.At(1, func() { note("event") })
	s.Arrivals([]float64{0.5, 1, 1, 2, 7}, func(i int) {
		note(fmt.Sprintf("arrival%d", i))
		if i == 0 {
			s.At(1, func() { note("scheduled") })
		}
	})
	if ran := s.Run(5); ran != 6 {
		t.Errorf("Run(5) ran %d, want 6", ran)
	}
	if s.Now() != 5 {
		t.Errorf("Now = %v after Run(5)", s.Now())
	}
	if ran := s.Drain(); ran != 1 {
		t.Errorf("Drain ran %d, want the arrival at 7", ran)
	}
	want := "arrival0@0.5 arrival1@1 arrival2@1 event@1 scheduled@1 arrival3@2 arrival4@7"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order = %s\nwant    %s", got, want)
	}
}

// TestArrivalStreamRejectsBadTimes checks that unsorted arrivals, an
// arrival before now, an invalid time, and a new stream set while the
// last has arrivals to run all panic, as scheduling in the past does.
func TestArrivalStreamRejectsBadTimes(t *testing.T) {
	panics := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", label)
			}
		}()
		f()
	}
	noop := func(int) {}
	panics("unsorted arrivals", func() { New().Arrivals([]float64{1, 3, 2}, noop) })
	panics("NaN arrival", func() { New().Arrivals([]float64{1, math.NaN()}, noop) })
	panics("infinite arrival", func() { New().Arrivals([]float64{math.Inf(1)}, noop) })
	s := New()
	s.Run(4)
	panics("arrival before now", func() { s.Arrivals([]float64{3, 5}, noop) })
	s.Arrivals([]float64{5, 6}, noop)
	panics("stream replaced early", func() { s.Arrivals([]float64{8}, noop) })
	s.Run(6)
	s.Arrivals([]float64{8}, noop) // the last stream has finished
}
