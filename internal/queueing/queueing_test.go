package queueing

import (
	"math"
	"testing"
)

func TestFIFOOrdering(t *testing.T) {
	q := NewFIFO(10)
	for i := 0; i < 5; i++ {
		q.Push(float64(i), Item{ID: i, Arrival: float64(i)})
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d", q.Len())
	}
	got := q.Pop(5, 3)
	if len(got) != 3 || got[0].ID != 0 || got[2].ID != 2 {
		t.Errorf("Pop order wrong: %+v", got)
	}
	if q.Len() != 2 {
		t.Errorf("Len after pop = %d", q.Len())
	}
	rest := q.Pop(5, 10)
	if len(rest) != 2 || rest[0].ID != 3 {
		t.Errorf("remainder wrong: %+v", rest)
	}
	if q.Pop(5, 1) != nil {
		t.Error("Pop on empty should return nil")
	}
	if q.Pop(5, 0) != nil {
		t.Error("Pop(0) should return nil")
	}
}

func TestFIFOEnqueueStampsTime(t *testing.T) {
	q := NewFIFO(10)
	q.Push(3.5, Item{ID: 1, Arrival: 3.0})
	got := q.Pop(4, 1)
	if got[0].Enqueue != 3.5 {
		t.Errorf("Enqueue = %v, want 3.5", got[0].Enqueue)
	}
	if got[0].Arrival != 3.0 {
		t.Errorf("Arrival = %v, want 3.0", got[0].Arrival)
	}
}

func TestDropWhere(t *testing.T) {
	q := NewFIFO(10)
	for i := 0; i < 6; i++ {
		q.Push(float64(i), Item{ID: i, Arrival: float64(i)})
	}
	dropped := q.DropWhere(func(it Item) bool { return it.ID%2 == 0 })
	if len(dropped) != 3 {
		t.Fatalf("dropped %d, want 3", len(dropped))
	}
	if q.Len() != 3 {
		t.Fatalf("kept %d, want 3", q.Len())
	}
	kept := q.Pop(10, 10)
	for _, it := range kept {
		if it.ID%2 == 0 {
			t.Errorf("even ID %d survived drop", it.ID)
		}
	}
}

func TestArrivalRateWindow(t *testing.T) {
	q := NewFIFO(10)
	// 20 arrivals over 10 seconds -> 2/s.
	for i := 0; i < 20; i++ {
		q.Push(float64(i)*0.5, Item{ID: i})
	}
	rate := q.ArrivalRate(10)
	if math.Abs(rate-2.0) > 0.25 {
		t.Errorf("rate = %v, want ~2", rate)
	}
	// After 15 seconds of silence the window should be empty.
	if rate := q.ArrivalRate(25); rate != 0 {
		t.Errorf("stale rate = %v, want 0", rate)
	}
}

func TestArrivalRateEarlyClock(t *testing.T) {
	q := NewFIFO(10)
	q.Push(0.5, Item{ID: 0})
	q.Push(1.0, Item{ID: 1})
	// Only 2 seconds elapsed: rate should use elapsed time, not window.
	rate := q.ArrivalRate(2)
	if math.Abs(rate-1.0) > 1e-9 {
		t.Errorf("early rate = %v, want 1.0", rate)
	}
}

func TestSnap(t *testing.T) {
	q := NewFIFO(10)
	for i := 0; i < 8; i++ {
		q.Push(float64(i), Item{ID: i})
	}
	s := q.Snap(8)
	if s.Len != 8 {
		t.Errorf("Len = %d", s.Len)
	}
	// 8 arrivals over the first 8 s of a 10 s window.
	if math.Abs(s.ArrivalRate-1) > 1e-9 {
		t.Errorf("rate = %v, want 1", s.ArrivalRate)
	}
}

func TestLittleLawConsistencyUnderSteadyState(t *testing.T) {
	// Feed at rate lambda, drain at rate mu < lambda: the queue builds,
	// so Little's W = L/lambda from the snapshot is positive and finite;
	// then drain fully and L, hence W, returns to zero.
	q := NewFIFO(5)
	now := 0.0
	id := 0
	for step := 0; step < 50; step++ {
		now += 0.1
		q.Push(now, Item{ID: id, Arrival: now})
		id++
		if step%2 == 1 {
			q.Pop(now, 1)
		}
	}
	s := q.Snap(now)
	if s.Len == 0 || s.ArrivalRate <= 0 {
		t.Errorf("expected backlog at a positive arrival rate: %+v", s)
	}
	q.Pop(now, q.Len())
	if n := q.Snap(now).Len; n != 0 {
		t.Errorf("drained queue length = %d, want 0", n)
	}
}

func TestDefaultWindow(t *testing.T) {
	q := NewFIFO(0)
	if q.windowSecs != 10 {
		t.Errorf("default window = %v, want 10", q.windowSecs)
	}
}

func TestFIFOLenAfterPushPop(t *testing.T) {
	q := NewFIFO(10)
	for i := 0; i < 4; i++ {
		q.Push(float64(i), Item{ID: i})
	}
	q.Pop(4, 2)
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
}
