package loadbalancer

import (
	"fmt"
	"math"
	"testing"

	"diffserve/internal/imagespace"
	"diffserve/internal/metrics"
	"diffserve/internal/queueing"
	"diffserve/internal/stats"
)

// newLB builds a load balancer over two empty pools.
func newLB(mode Mode, seed uint64) *LB {
	return New(mode, stats.NewRNG(seed), NewPool(1, 5), NewPool(2, 5))
}

func TestCascadeRoutesLight(t *testing.T) {
	lb := newLB(ModeCascade, 1)
	for i := 0; i < 10; i++ {
		if got := lb.Route(0, queueing.Item{ID: i}); got != PoolLight {
			t.Fatalf("cascade routed to %v", got)
		}
	}
	if lb.Light.Len() != 10 || lb.Heavy.Len() != 0 {
		t.Error("queue lengths wrong")
	}
}

func TestAllHeavyRoutesHeavy(t *testing.T) {
	lb := newLB(ModeAllHeavy, 2)
	lb.Route(0, queueing.Item{ID: 1})
	if lb.Heavy.Len() != 1 || lb.Light.Len() != 0 {
		t.Error("all-heavy routing wrong")
	}
}

func TestRandomSplitProbability(t *testing.T) {
	lb := newLB(ModeRandomSplit, 3)
	lb.SetSplit(0.3)
	n := 20000
	for i := 0; i < n; i++ {
		lb.Route(0, queueing.Item{ID: i})
	}
	frac := float64(lb.Heavy.Len()) / float64(n)
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("heavy fraction = %.3f, want ~0.3", frac)
	}
}

func TestSetSplitClamps(t *testing.T) {
	lb := newLB(ModeRandomSplit, 4)
	lb.SetSplit(-1)
	if lb.splitProb != 0 {
		t.Errorf("split = %v, want 0", lb.splitProb)
	}
	lb.SetSplit(2)
	if lb.splitProb != 1 {
		t.Errorf("split = %v, want 1", lb.splitProb)
	}
}

// TestDeferCountsAndQueues pins the deferral verdict: only a cascade's
// light result under the threshold defers.
func TestDeferCountsAndQueues(t *testing.T) {
	for _, tc := range []struct {
		mode            Mode
		pool            PoolID
		conf, threshold float64
		want            bool
	}{
		{ModeCascade, PoolLight, 0.2, 0.5, true},
		{ModeCascade, PoolLight, 0.5, 0.5, false}, // at the threshold serves
		{ModeCascade, PoolLight, 0.9, 0.5, false},
		{ModeCascade, PoolLight, 0, 0, false}, // threshold 0 never defers
		{ModeCascade, PoolHeavy, 0, 0.5, false},
		{ModeAllLight, PoolLight, 0, 0.5, false},
		{ModeRandomSplit, PoolLight, 0, 0.5, false},
	} {
		if got := Defers(tc.mode, tc.pool, tc.conf, tc.threshold); got != tc.want {
			t.Errorf("Defers(%v, %v, %v, %v) = %v, want %v", tc.mode, tc.pool, tc.conf, tc.threshold, got, tc.want)
		}
	}
}

func TestQueueAccessor(t *testing.T) {
	lb := newLB(ModeCascade, 6)
	if lb.Queue(PoolLight) != lb.Light || lb.Queue(PoolHeavy) != lb.Heavy {
		t.Error("Queue accessor wrong")
	}
}

func TestSnap(t *testing.T) {
	lb := newLB(ModeCascade, 7)
	for i := 0; i < 5; i++ {
		lb.Route(float64(i), queueing.Item{ID: i})
	}
	s := lb.Snap(5)
	if s.Light.Len != 5 {
		t.Errorf("snapshot light len = %d", s.Light.Len)
	}
	if s.Light.ArrivalRate <= 0 {
		t.Error("snapshot rate missing")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeCascade: "cascade", ModeAllLight: "all-light",
		ModeAllHeavy: "all-heavy", ModeRandomSplit: "random-split",
		Mode(99): "unknown",
	} {
		if m.String() != want {
			t.Errorf("%d -> %q, want %q", m, m.String(), want)
		}
	}
}

// TestDataPathScript drives the policy core through one scripted
// cascade run — arrivals, pulls, completions with confidences and
// control ticks at stated trace times — the way both drivers do, and
// checks each query's outcome and every tick's counters.
func TestDataPathScript(t *testing.T) {
	const (
		slo       = 5.0
		threshold = 0.5
	)
	type conf struct {
		id int
		c  float64
	}
	type step struct {
		at float64

		arrive []int

		pull  bool
		pool  PoolID
		max   int
		batch []int

		complete []conf

		tick                 bool
		arrivals, violations int
		lightLen, heavyLen   int
	}
	script := []step{
		{at: 0, arrive: []int{1, 2}},
		// A partial batch goes out at once: no pull waits for one to fill.
		{at: 0.1, pull: true, pool: PoolLight, max: 4, batch: []int{1, 2}},
		// 1 is confident and serves; 2 is not and joins the heavy queue.
		{at: 1.6, pool: PoolLight, complete: []conf{{1, 0.9}, {2, 0.2}}},
		{at: 1.7, arrive: []int{3, 4}},
		// A pull takes no more than its max.
		{at: 1.8, pull: true, pool: PoolLight, max: 1, batch: []int{3}},
		{at: 2.0, tick: true, arrivals: 4, violations: 0, lightLen: 1, heavyLen: 1},
		{at: 2.2, pull: true, pool: PoolHeavy, max: 1, batch: []int{2}},
		{at: 2.5, arrive: []int{5}},
		{at: 4.2, pool: PoolHeavy, complete: []conf{{2, 0}}},
		// Nobody pulled 4: at 6 it cannot finish by 1.7+5 even if started
		// now (6+1 > 6.7), so the tick sheds it. 5 (deadline 7.5) stays.
		{at: 6.0, tick: true, arrivals: 1, violations: 1, lightLen: 1},
		// 3 completes after its deadline: served, and a violation.
		{at: 7.0, pool: PoolLight, complete: []conf{{3, 0.9}}},
		// The pull sheds 5 (7.2+1 > 7.5) and has nothing left to hand out.
		{at: 7.2, pull: true, pool: PoolLight, max: 4},
		{at: 8.0, tick: true, arrivals: 0, violations: 2},
	}
	want := map[int]string{
		1: "served-light", 2: "deferred-then-served-heavy", 3: "served-light-late",
		4: "shed", 5: "shed",
	}

	lb := New(ModeCascade, stats.NewRNG(1), NewPool(1, slo), NewPool(2, slo))
	ledger := Ledger{SLO: slo, Col: metrics.NewCollector()}
	pulled := map[int]queueing.Item{}
	deferred := map[int]bool{}
	drop := func(shed []queueing.Item) {
		for _, it := range shed {
			ledger.Drop(it)
		}
	}
	for _, st := range script {
		switch {
		case st.arrive != nil:
			ledger.Arrive(len(st.arrive))
			for _, id := range st.arrive {
				lb.Route(st.at, queueing.Item{ID: id, Arrival: st.at})
			}
		case st.pull:
			shed, batch := lb.Queue(st.pool).Dequeue(st.at, st.max, nil)
			drop(shed)
			var ids []int
			for _, it := range batch {
				ids = append(ids, it.ID)
				pulled[it.ID] = it
			}
			if fmt.Sprint(ids) != fmt.Sprint(st.batch) {
				t.Errorf("pull at %v handed out %v, want %v", st.at, ids, st.batch)
			}
		case st.complete != nil:
			for _, c := range st.complete {
				it := pulled[c.id]
				if Defers(ModeCascade, st.pool, c.c, threshold) {
					deferred[c.id] = true
					lb.Heavy.Push(st.at, it)
					continue
				}
				variant := "light"
				if st.pool == PoolHeavy {
					variant = "heavy"
				}
				ledger.Complete(it, st.at, st.pool, imagespace.Image{Variant: variant}, c.c)
			}
		case st.tick:
			drop(lb.Light.Shed(st.at))
			drop(lb.Heavy.Shed(st.at))
			snap := lb.Snap(st.at)
			arrivals, violations := ledger.Tick()
			if arrivals != st.arrivals || violations != st.violations {
				t.Errorf("tick at %v counted %d arrivals, %d violations; want %d, %d",
					st.at, arrivals, violations, st.arrivals, st.violations)
			}
			if snap.Light.Len != st.lightLen || snap.Heavy.Len != st.heavyLen {
				t.Errorf("tick at %v queues %d light, %d heavy; want %d, %d",
					st.at, snap.Light.Len, snap.Heavy.Len, st.lightLen, st.heavyLen)
			}
		}
	}

	got := map[int]string{}
	for _, r := range ledger.Col.Records() {
		if _, dup := got[r.ID]; dup {
			t.Errorf("query %d resolved twice", r.ID)
		}
		switch {
		case r.Dropped:
			got[r.ID] = "shed"
		case r.Deferred && deferred[r.ID] && r.ServedBy == "heavy":
			got[r.ID] = "deferred-then-served-heavy"
		case !r.Deferred && r.ServedBy == "light" && r.Late():
			got[r.ID] = "served-light-late"
		case !r.Deferred && r.ServedBy == "light":
			got[r.ID] = "served-light"
		default:
			got[r.ID] = fmt.Sprintf("unexpected %+v", r)
		}
		if r.Deadline != r.Arrival+slo {
			t.Errorf("query %d deadline %v, want arrival %v + SLO", r.ID, r.Deadline, r.Arrival)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("outcomes %v, want %v", got, want)
	}
	if completed, dropped := ledger.Counts(); completed != 3 || dropped != 2 {
		t.Errorf("lifetime counts %d completed, %d dropped; want 3, 2", completed, dropped)
	}
}

func TestShardOfDeterministicAndBalanced(t *testing.T) {
	// Pure function of (id, shards): repeated calls and independent
	// processes must agree, so pin a few golden assignments.
	golden := map[[2]int]int{}
	for _, id := range []int{0, 1, 2, 1000, 123456} {
		for _, n := range []int{1, 2, 4, 8} {
			golden[[2]int{id, n}] = ShardOf(id, n)
		}
	}
	for k, want := range golden {
		if got := ShardOf(k[0], k[1]); got != want {
			t.Errorf("ShardOf(%d, %d) unstable: %d then %d", k[0], k[1], want, got)
		}
	}
	// Degenerate shard counts collapse to shard 0.
	for _, n := range []int{1, 0, -3} {
		if got := ShardOf(42, n); got != 0 {
			t.Errorf("ShardOf(42, %d) = %d, want 0", n, got)
		}
	}
	// Range and balance: sequential IDs (the trace replay pattern)
	// must spread near-uniformly, not stripe into one shard.
	for _, n := range []int{2, 3, 4, 8} {
		counts := make([]int, n)
		const total = 40000
		for id := 0; id < total; id++ {
			s := ShardOf(id, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", id, n, s)
			}
			counts[s]++
		}
		want := float64(total) / float64(n)
		for s, c := range counts {
			if dev := (float64(c) - want) / want; dev < -0.1 || dev > 0.1 {
				t.Errorf("%d shards: shard %d holds %d of %d (%.1f%% off uniform)",
					n, s, c, total, 100*dev)
			}
		}
	}
}
