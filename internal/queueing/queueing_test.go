package queueing

import (
	"math"
	"math/rand"
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

// oracleFIFO is FIFO as it was when every dequeue and every expired
// arrival shifted the rest of its slice down, kept verbatim as the
// oracle TestFIFOMatchesOracle holds the head-indexed FIFO to.
type oracleFIFO struct {
	items []Item
	// arrival-rate window
	arrivals   []float64
	windowSecs float64
}

func newOracleFIFO(windowSecs float64) *oracleFIFO {
	if windowSecs <= 0 {
		windowSecs = 10
	}
	return &oracleFIFO{windowSecs: windowSecs}
}

func (q *oracleFIFO) Push(now float64, it Item) {
	it.Enqueue = now
	q.items = append(q.items, it)
	q.arrivals = append(q.arrivals, now)
	q.trim(now)
}

func (q *oracleFIFO) Pop(now float64, n int) []Item {
	if n <= 0 || len(q.items) == 0 {
		return nil
	}
	return q.PopAppend(now, n, nil)
}

func (q *oracleFIFO) PopAppend(now float64, n int, dst []Item) []Item {
	if n <= 0 || len(q.items) == 0 {
		return dst
	}
	if n > len(q.items) {
		n = len(q.items)
	}
	dst = append(dst, q.items[:n]...)
	q.items = append(q.items[:0], q.items[n:]...)
	q.trim(now)
	return dst
}

func (q *oracleFIFO) DropWhere(drop func(Item) bool) []Item {
	var removed []Item
	kept := q.items[:0]
	for _, it := range q.items {
		if drop(it) {
			removed = append(removed, it)
		} else {
			kept = append(kept, it)
		}
	}
	q.items = kept
	return removed
}

func (q *oracleFIFO) Len() int { return len(q.items) }

func (q *oracleFIFO) trim(now float64) {
	cut := now - q.windowSecs
	i := 0
	for i < len(q.arrivals) && q.arrivals[i] < cut {
		i++
	}
	if i > 0 {
		q.arrivals = append(q.arrivals[:0], q.arrivals[i:]...)
	}
}

func (q *oracleFIFO) ArrivalRate(now float64) float64 {
	q.trim(now)
	if len(q.arrivals) == 0 {
		return 0
	}
	span := q.windowSecs
	if now < span {
		span = math.Max(now, 1e-9)
	}
	return float64(len(q.arrivals)) / span
}

// TestFIFOMatchesOracle drives FIFO and the shifting oracle with the
// same seeded random sequences of Push, PopAppend, Pop, DropWhere and
// ArrivalRate at nondecreasing times — long enough, and with phases
// that fill and drain the queue, that both the queue and the rate
// window compact many times — and requires the same items, lengths and
// arrival-rate bits after every operation.
func TestFIFOMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window := []float64{0, 0.5, 3, 10}[seed%4]
		got, want := NewFIFO(window), newOracleFIFO(window)
		now, id := 0.0, 0
		gbuf := make([]Item, 0, 4)
		sameItems := func(op string, g, w []Item) {
			t.Helper()
			if len(g) != len(w) || (g == nil) != (w == nil) {
				t.Fatalf("seed %d %s at %v: %d items (nil %v), oracle %d (nil %v)", seed, op, now, len(g), g == nil, len(w), w == nil)
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("seed %d %s at %v: item %d = %+v, oracle %+v", seed, op, now, i, g[i], w[i])
				}
			}
		}
		for step := 0; step < 20000; step++ {
			// Alternate phases that favour pushes and pops, so the
			// queue both grows long and drains empty.
			pushBias := 0.3
			if (step/500)%2 == 0 {
				pushBias = 0.7
			}
			now += rng.ExpFloat64() * 0.05
			if rng.Intn(10) == 0 {
				now += rng.Float64() * 2 * window // let the whole window expire
			}
			op := ""
			switch r := rng.Float64(); {
			case r < pushBias:
				op = "Push"
				it := Item{ID: id, Arrival: now - rng.Float64()}
				id++
				got.Push(now, it)
				want.Push(now, it)
			case r < pushBias+0.12:
				op = "PopAppend"
				n := rng.Intn(10) - 1
				gbuf = got.PopAppend(now, n, gbuf[:0])
				sameItems(op, gbuf, want.PopAppend(now, n, []Item{}))
			case r < pushBias+0.2:
				op = "Pop"
				n := rng.Intn(6)
				sameItems(op, got.Pop(now, n), want.Pop(now, n))
			case r < pushBias+0.25:
				op = "DropWhere"
				cut := now - rng.Float64()*1.5
				if rng.Intn(3) == 0 {
					cut = math.Inf(-1) // sheds nothing
				}
				drop := func(it Item) bool { return it.Arrival < cut }
				sameItems(op, got.DropWhere(drop), want.DropWhere(drop))
			default:
				op = "ArrivalRate"
			}
			if g, w := got.ArrivalRate(now), want.ArrivalRate(now); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d after %s at %v: ArrivalRate %v, oracle %v", seed, op, now, g, w)
			}
			if got.Len() != want.Len() {
				t.Fatalf("seed %d after %s at %v: Len %d, oracle %d", seed, op, now, got.Len(), want.Len())
			}
			sameItems(op+" (queue)", got.items[got.head:], want.items)
		}
	}
}

// TestRequeueCountsNoArrival pins that a re-queued item is dequeued in
// order like a pushed one but stays out of the arrival rate.
func TestRequeueCountsNoArrival(t *testing.T) {
	q := NewFIFO(10)
	q.Push(1, Item{ID: 1, Arrival: 1})
	q.Requeue(2, Item{ID: 2, Arrival: 0.5})
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	if rate := q.ArrivalRate(4); rate != 0.25 {
		t.Errorf("rate = %v, want one arrival over 4 s", rate)
	}
	got := q.Pop(4, 2)
	if got[0].ID != 1 || got[1].ID != 2 || got[1].Enqueue != 2 {
		t.Errorf("Pop = %+v, want 1 then 2 (enqueued at 2)", got)
	}
}
