package simring

import (
	"math"
	"math/rand"
	"sort"
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
