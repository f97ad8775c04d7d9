package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diffserve/internal/allocator"
	"diffserve/internal/controller"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/stats"
	"diffserve/internal/trace"
)

// newTestShards builds n LBServer shards on one clock with the
// per-shard "lb/<i>" RNG streams plus a frontend over direct conns.
func newTestShards(t testing.TB, n int, timescale, slo float64) ([]*LBServer, *ShardedLB) {
	t.Helper()
	clock := NewClock(timescale)
	lbs := make([]*LBServer, n)
	conns := make([]LBConn, n)
	for i := range lbs {
		lbs[i] = NewLBServer(LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: slo,
			LightMinExec: 0.1, HeavyMinExec: 1.78,
			Clock: clock, Seed: 1, RNGStream: fmt.Sprintf("lb/%d", i),
		})
		conns[i] = NewLocalLBConn(lbs[i])
	}
	fe, err := NewShardedLB(ShardedLBConfig{Shards: conns, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fe.Close)
	return lbs, fe
}

// TestShardedLBRoutesByHash pins the frontend's partitioning to
// loadbalancer.ShardOf: every submitted query must be pullable only
// from its owning shard, every completion sent through the frontend
// must reach that shard, and the merged result stream must return
// every ID exactly once. A frontend over fewer than two shards is
// refused.
func TestShardedLBRoutesByHash(t *testing.T) {
	const shards, queries = 3, 60
	lbs, fe := newTestShards(t, shards, 0.001, 1e9)
	ctx := context.Background()

	qs := make([]QueryMsg, queries)
	for i := range qs {
		qs[i] = QueryMsg{ID: i, Arrival: 0.001}
	}
	if err := fe.SubmitBatch(ctx, SubmitRequest{Queries: qs}); err != nil {
		t.Fatal(err)
	}

	// Drain each shard directly and check ownership.
	seen := map[int]int{}
	for s, lb := range lbs {
		for {
			resp, _ := pull(ctx, NewLocalLBConn(lb), PullRequest{Role: "light", Max: 16})
			if len(resp.Queries) == 0 {
				break
			}
			items := make([]CompleteItem, len(resp.Queries))
			for i, q := range resp.Queries {
				if want := loadbalancer.ShardOf(q.ID, shards); want != s {
					t.Errorf("query %d pulled from shard %d, ShardOf says %d", q.ID, s, want)
				}
				if _, dup := seen[q.ID]; dup {
					t.Errorf("query %d handed out twice", q.ID)
				}
				seen[q.ID] = s
				items[i] = CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: "sdturbo", Confidence: 0.9}
			}
			if err := fe.Complete(ctx, CompleteRequest{Role: "light", Items: items}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(seen) != queries {
		t.Fatalf("pulled %d of %d queries across shards", len(seen), queries)
	}

	// The merged result stream must surface each ID exactly once.
	got := map[int]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < queries && time.Now().Before(deadline) {
		resp, err := pollResults(ctx, fe, ResultsRequest{Max: 64, Wait: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resp.Results {
			if got[r.ID] {
				t.Errorf("result %d delivered twice", r.ID)
			}
			if r.Dropped {
				t.Errorf("result %d dropped under unbounded SLO", r.ID)
			}
			got[r.ID] = true
		}
	}
	if len(got) != queries {
		t.Fatalf("collected %d of %d merged results", len(got), queries)
	}

	// Merged stats must sum the shards' counters.
	st, err := fe.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != queries || st.Dropped != 0 || st.ArrivalsSinceTick != queries {
		t.Errorf("merged stats = %+v", st)
	}
	// Each shard completed exactly the queries it owns: the frontend
	// routed every completion by ShardOf.
	owned := make([]int, shards)
	for id := range seen {
		owned[loadbalancer.ShardOf(id, shards)]++
	}
	for s, lb := range lbs {
		if got := lb.Stats().Completed; got != owned[s] {
			t.Errorf("shard %d completed %d queries, owns %d", s, got, owned[s])
		}
	}

	clock := NewClock(0.001)
	for _, conns := range [][]LBConn{nil, {NewLocalLBConn(lbs[0])}} {
		if _, err := NewShardedLB(ShardedLBConfig{Shards: conns, Clock: clock}); err == nil {
			t.Errorf("NewShardedLB over %d conns succeeded, want an error", len(conns))
		}
	}
}

// TestShardedLBAssignmentDeterminism replays the same trace-derived
// ID stream twice (fresh shard sets, same seed) and over a second
// transport, requiring the identical per-shard assignment each time.
func TestShardedLBAssignmentDeterminism(t *testing.T) {
	const shards = 2
	ids := make([]int, 0, 200)
	arr, err := trace.Static(10, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range arr.Arrivals(stats.NewRNG(3).Stream("trace")) {
		ids = append(ids, i)
	}
	if len(ids) == 0 {
		t.Fatal("empty trace")
	}

	assign := func(mk func() Transport) map[int]int {
		tp := mk()
		defer tp.Close()
		clock := NewClock(0.0005)
		conns := make([]LBConn, shards)
		lbs := make([]*LBServer, shards)
		for i := range conns {
			lbs[i] = NewLBServer(LBConfig{
				Mode: loadbalancer.ModeCascade, SLO: 1e9,
				LightMinExec: 0.1, HeavyMinExec: 1.78,
				Clock: clock, Seed: 7, RNGStream: fmt.Sprintf("lb/%d", i),
			})
			conn, err := tp.ServeLB(lbs[i])
			if err != nil {
				t.Fatal(err)
			}
			conns[i] = conn
		}
		fe, err := NewShardedLB(ShardedLBConfig{Shards: conns, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		defer fe.Close()
		qs := make([]QueryMsg, len(ids))
		for i, id := range ids {
			qs[i] = QueryMsg{ID: id, Arrival: 0.001}
		}
		if err := fe.SubmitBatch(context.Background(), SubmitRequest{Queries: qs}); err != nil {
			t.Fatal(err)
		}
		// The pulls below go to the servers directly, not through the
		// conns the submit was accepted on: a responding call on every
		// shard's conn is the barrier that it has been applied.
		if _, err := fe.Stats(context.Background()); err != nil {
			t.Fatal(err)
		}
		out := map[int]int{}
		for s, lb := range lbs {
			for {
				resp, _ := pull(context.Background(), NewLocalLBConn(lb), PullRequest{Role: "light", Max: 64})
				if len(resp.Queries) == 0 {
					break
				}
				for _, q := range resp.Queries {
					out[q.ID] = s
				}
			}
			lb.DrainRemaining()
		}
		return out
	}

	mkInproc := func() Transport { return localTransport{} }
	mkTCP := func() Transport { return newTCPTransport() }
	first := assign(mkInproc)
	if len(first) != len(ids) {
		t.Fatalf("first run assigned %d of %d", len(first), len(ids))
	}
	for name, mk := range map[string]func() Transport{"inproc-rerun": mkInproc, "tcp": mkTCP} {
		other := assign(mk)
		if len(other) != len(first) {
			t.Fatalf("%s: assigned %d of %d", name, len(other), len(first))
		}
		for id, s := range first {
			if other[id] != s {
				t.Errorf("%s: query %d on shard %d, first run had %d", name, id, other[id], s)
			}
		}
	}
}

// TestShardedLBStress hammers the frontend from concurrent batch
// submitters, per-shard pull/complete workers, frontend sweep
// pullers, and merged-result pollers, with cascade deferrals crossing
// pools inside each shard. The pollers' caller-side gathers race the
// pumps for the same shards' results. Runs in -short mode on purpose:
// the verify script's -race leg executes it. Accounting must balance
// exactly, and every ID must be delivered exactly once.
func TestShardedLBStress(t *testing.T) {
	const (
		shards     = 2
		submitters = 4
		batches    = 40
		batchSize  = 8
		total      = submitters * batches * batchSize
	)
	lbs, fe := newTestShards(t, shards, 1e-5, 1e9)
	for _, lb := range lbs {
		lb.Configure(ConfigureLBRequest{Threshold: 0.5})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ledger := newDeliveryLedger(total)
	resolved := &ledger.total
	var wg sync.WaitGroup

	// Two parking pollers and a zero-wait one: each gathers from the
	// shards on its own goroutine while the pumps poll the same shards,
	// and every result must still come out exactly once.
	for _, wait := range []float64{50, 50, 0} {
		wg.Add(1)
		go func(wait float64) {
			defer wg.Done()
			for resolved.Load() < total && ctx.Err() == nil {
				resp, err := pollResults(ctx, fe, ResultsRequest{Max: 64, Wait: wait})
				if err != nil {
					return
				}
				ledger.record(resp.Results)
				if wait == 0 && len(resp.Results) == 0 {
					runtime.Gosched()
				}
			}
		}(wait)
	}

	complete := func(conn LBConn, role string, qs []QueryMsg) {
		items := make([]CompleteItem, len(qs))
		for i, q := range qs {
			conf := 0.9
			if role == "light" && q.ID%2 == 0 {
				conf = 0.1 // defers to the heavy pool of the same shard
			}
			items[i] = CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: role, Confidence: conf}
		}
		_ = conn.Complete(ctx, CompleteRequest{Role: role, Items: items})
	}
	// Shard-pinned workers (the multi-host layout)...
	for s := 0; s < shards; s++ {
		conn := fe.cfg.Shards[s]
		for _, role := range []string{"light", "heavy"} {
			wg.Add(1)
			go func(conn LBConn, role string) {
				defer wg.Done()
				for resolved.Load() < total && ctx.Err() == nil {
					resp, err := pull(ctx, conn, PullRequest{Role: role, Max: batchSize, Wait: 100})
					if err != nil || len(resp.Queries) == 0 {
						continue
					}
					complete(conn, role, resp.Queries)
				}
			}(conn, role)
		}
	}
	// ...plus frontend sweep pullers (Complete routes by ID hash).
	for _, role := range []string{"light", "heavy"} {
		wg.Add(1)
		go func(role string) {
			defer wg.Done()
			for resolved.Load() < total && ctx.Err() == nil {
				resp, err := pull(ctx, fe, PullRequest{Role: role, Max: batchSize, Wait: 100})
				if err != nil || len(resp.Queries) == 0 {
					continue
				}
				complete(fe, role, resp.Queries)
			}
		}(role)
	}

	for sIdx := 0; sIdx < submitters; sIdx++ {
		wg.Add(1)
		go func(sIdx int) {
			defer wg.Done()
			base := sIdx * batches * batchSize
			for b := 0; b < batches; b++ {
				qs := make([]QueryMsg, batchSize)
				for i := range qs {
					qs[i] = QueryMsg{ID: base + b*batchSize + i}
				}
				if err := fe.SubmitBatch(ctx, SubmitRequest{Queries: qs}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(sIdx)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		cancel()
		t.Fatalf("sharded stress wedged: resolved %d of %d", resolved.Load(), total)
	}
	if got := resolved.Load(); got != total {
		t.Fatalf("resolved %d of %d", got, total)
	}
	ledger.check(t)
	st, err := fe.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed+st.Dropped != total || st.Dropped != 0 {
		t.Errorf("merged accounting: completed %d dropped %d, want %d / 0", st.Completed, st.Dropped, total)
	}
	recorded := 0
	for _, lb := range lbs {
		recorded += lb.Collector().Len()
	}
	if recorded != total {
		t.Errorf("shard collectors recorded %d of %d", recorded, total)
	}
}

// TestShardQuotas pins the plan-striping math: proportional splits,
// capacity repair, and the per-shard starvation guard.
func TestShardQuotas(t *testing.T) {
	cases := []struct {
		name                 string
		needLight, needHeavy int
		sizes                []int
		wantLight, wantHeavy []int
	}{
		{"even split", 6, 2, []int{4, 4}, []int{3, 3}, []int{1, 1}},
		{"odd light", 5, 2, []int{4, 4}, []int{3, 2}, []int{1, 1}},
		{"single heavy spreads", 7, 1, []int{4, 4}, []int{3, 3}, []int{1, 1}},
		{"all light keeps shards lit", 8, 0, []int{4, 4}, []int{4, 4}, []int{0, 0}},
		{"uneven groups", 6, 2, []int{2, 6}, []int{1, 5}, []int{1, 1}},
		{"capacity repair", 2, 2, []int{1, 3}, []int{0, 2}, []int{1, 1}},
		{"three shards one heavy", 7, 1, []int{3, 3, 2}, []int{2, 2, 1}, []int{1, 1, 1}},
		// Regression: the starvation guard steals a heavy unit from
		// the full shard 0 to seat a light worker there, and must
		// re-grant that heavy unit on shard 1's spare slot instead of
		// silently idling a worker the plan needs (totals stay 2/10).
		{"steal re-grants displaced unit", 2, 10, []int{2, 10}, []int{1, 1}, []int{1, 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			light, heavy := shardQuotas(tc.needLight, tc.needHeavy, tc.sizes)
			totalCap, gotLight, gotHeavy := 0, 0, 0
			for i := range tc.sizes {
				totalCap += tc.sizes[i]
				gotLight += light[i]
				gotHeavy += heavy[i]
				if light[i]+heavy[i] > tc.sizes[i] {
					t.Errorf("shard %d over capacity: %d light + %d heavy > %d", i, light[i], heavy[i], tc.sizes[i])
				}
				if tc.needLight > 0 && light[i] == 0 && tc.sizes[i] > 1 {
					t.Errorf("shard %d starves light: light=%v heavy=%v", i, light, heavy)
				}
				if tc.needHeavy > 0 && heavy[i] == 0 && tc.sizes[i] > 1 {
					t.Errorf("shard %d starves heavy: light=%v heavy=%v", i, light, heavy)
				}
			}
			// Plans that fit must not lose workers to the striping:
			// the starvation guard may trade one role's unit for the
			// other's, but the total assigned never falls below the
			// plan's — a dropped unit would idle a worker the plan
			// wants busy.
			if need := tc.needLight + tc.needHeavy; need <= totalCap && gotLight+gotHeavy < need {
				t.Errorf("plan units dropped: assigned %d light + %d heavy < planned %d", gotLight, gotHeavy, need)
			}
			if fmt.Sprint(light) != fmt.Sprint(tc.wantLight) || fmt.Sprint(heavy) != fmt.Sprint(tc.wantHeavy) {
				t.Errorf("quotas light=%v heavy=%v, want %v / %v", light, heavy, tc.wantLight, tc.wantHeavy)
			}
		})
	}
}

// TestHarnessShardedTopology replays lightly loaded traces through
// the sharded TCP topology and requires the same loss-free outcome a
// single LB produces: every query resolves exactly once, none drop.
// The one-worker row holds the tier to one queue per pool: its single
// worker must serve both shards, so a worker pinned to one shard would
// leave the other shard's half of the stream to be shed. The
// 7-worker/3-shard row is a worker count the shard count does not
// divide: every worker still pulls from every shard.
func TestHarnessShardedTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded harness skipped in -short mode")
	}
	f := newFixtures(t)
	clipperLight := func(workers int) *controller.Controller {
		a, err := allocator.NewClipper(f.light, false, workers, 5)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := controller.New(controller.Config{Alloc: a})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	cascade := func(workers int) *controller.Controller { return f.controller(t, workers, 5) }
	for _, tc := range []struct {
		name            string
		mode            loadbalancer.Mode
		workers, shards int
		qps, dur        float64
		ctrl            func(workers int) *controller.Controller
	}{
		{"cascade-8-workers", loadbalancer.ModeCascade, 8, 2, 6, 15, cascade},
		{"all-light-1-worker", loadbalancer.ModeAllLight, 1, 2, 2, 10, clipperLight},
		{"cascade-7-workers-3-shards", loadbalancer.ModeCascade, 7, 3, 4, 15, cascade},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := trace.Static(tc.qps, tc.dur, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(HarnessConfig{
				Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
				Mode: tc.mode, Workers: tc.workers, SLO: 5,
				Trace: tr, Ctrl: tc.ctrl(tc.workers),
				// 0.05, not 0.02: at 0.02 a GC pause on
				// a loaded 1-core box spans multiple trace seconds and sheds
				// a tail query past the SLO.
				Timescale: 0.05, Seed: 4242, DisableLoadDelay: true,
				Transport: TransportTCP, LBShards: tc.shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Collector.Len() != res.Queries {
				t.Errorf("recorded %d of %d queries", res.Collector.Len(), res.Queries)
			}
			sum := res.Summary()
			if sum.DropRatio != 0 {
				t.Errorf("sharded run dropped %.3f under light load", sum.DropRatio)
			}
			ids := map[int]bool{}
			for _, r := range res.Collector.Records() {
				if ids[r.ID] {
					t.Errorf("query %d recorded twice", r.ID)
				}
				ids[r.ID] = true
			}
			t.Logf("sharded harness: %d queries, FID=%.2f viol=%.3f wall=%.1fs",
				sum.Queries, sum.FID, sum.ViolationRatio, res.WallSeconds)
		})
	}
}

// flakyStatsConn wraps an LBConn and fails its Stats call while
// tripped, leaving the data path untouched.
type flakyStatsConn struct {
	LBConn
	fail atomic.Bool
}

func (c *flakyStatsConn) Stats(ctx context.Context) (LBStats, error) {
	if c.fail.Load() {
		return LBStats{}, fmt.Errorf("injected stats failure")
	}
	return c.LBConn.Stats(ctx)
}

// TestShardedLBStatsCarriesResetCounters pins the partial-failure
// behavior of the merged Stats: polling a shard destructively resets
// its since-tick counters, so counters gathered in a merge that then
// fails on another shard must surface in the next successful merge
// instead of silently vanishing from the controller's demand signal.
func TestShardedLBStatsCarriesResetCounters(t *testing.T) {
	clock := NewClock(0.001)
	lbs := make([]*LBServer, 2)
	conns := make([]LBConn, 2)
	for i := range lbs {
		lbs[i] = NewLBServer(LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: 1e9,
			LightMinExec: 0.1, HeavyMinExec: 1.78,
			Clock: clock, Seed: 1, RNGStream: fmt.Sprintf("lb/%d", i),
		})
		conns[i] = NewLocalLBConn(lbs[i])
	}
	flaky := &flakyStatsConn{LBConn: conns[1]}
	conns[1] = flaky
	fe, err := NewShardedLB(ShardedLBConfig{Shards: conns, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	// Arrivals land on both shards, then shard 1's poll fails: the
	// merge must report the error, but shard 0's counters (already
	// reset by the poll) must not be lost.
	const queries = 40
	qs := make([]QueryMsg, queries)
	for i := range qs {
		qs[i] = QueryMsg{ID: i, Arrival: 0.001}
	}
	if err := fe.SubmitBatch(context.Background(), SubmitRequest{Queries: qs}); err != nil {
		t.Fatal(err)
	}
	flaky.fail.Store(true)
	if _, err := fe.Stats(context.Background()); err == nil {
		t.Fatal("merged stats did not surface the shard failure")
	}
	flaky.fail.Store(false)
	st, err := fe.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ArrivalsSinceTick != queries {
		t.Errorf("arrivals after recovery = %d, want %d (reset counters dropped)", st.ArrivalsSinceTick, queries)
	}
	// And the carry is consumed: a further poll reports nothing new.
	st, err = fe.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ArrivalsSinceTick != 0 {
		t.Errorf("carry not consumed: arrivals = %d", st.ArrivalsSinceTick)
	}
	for _, lb := range lbs {
		lb.DrainRemaining()
	}
}

// TestFrontendResolvesEachQueryOnce runs 50 rounds of submit, pull,
// complete and poll through a 2-shard frontend, each round required to
// drain its batch, and requires every query to resolve exactly once.
func TestFrontendResolvesEachQueryOnce(t *testing.T) {
	const (
		rounds    = 50
		batchSize = 8
	)
	_, fe := newTestShards(t, 2, 1e-5, 1e9)
	ctx := context.Background()
	if err := fe.Configure(ctx, ConfigureLBRequest{Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	nextID := 0
	for round := 0; round < rounds; round++ {
		qs := make([]QueryMsg, batchSize)
		for i := range qs {
			qs[i] = QueryMsg{ID: nextID}
			nextID++
		}
		if err := fe.SubmitBatch(ctx, SubmitRequest{Queries: qs}); err != nil {
			t.Fatalf("round %d: submit: %v", round, err)
		}
		resolved := 0
		deadline := time.Now().Add(20 * time.Second)
		for resolved < batchSize {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: drained %d of %d queries", round, resolved, batchSize)
			}
			if resp, err := pull(ctx, fe, PullRequest{Role: "light", Max: batchSize, Wait: 5}); err == nil && len(resp.Queries) > 0 {
				items := make([]CompleteItem, len(resp.Queries))
				for i, q := range resp.Queries {
					items[i] = CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: "light", Confidence: 0.95}
				}
				if err := fe.Complete(ctx, CompleteRequest{Role: "light", Items: items}); err != nil {
					t.Fatalf("round %d: complete: %v", round, err)
				}
			}
			rr, err := pollResults(ctx, fe, ResultsRequest{Max: batchSize, Wait: 5})
			if err != nil {
				t.Fatalf("round %d: poll: %v", round, err)
			}
			for _, r := range rr.Results {
				seen[r.ID]++
				resolved++
			}
		}
	}
	if len(seen) != rounds*batchSize {
		t.Errorf("resolved %d distinct queries, want %d", len(seen), rounds*batchSize)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("query %d resolved %d times", id, n)
		}
	}
}

// TestSplitShardAddrs pins the address-list parsing -workers uses.
func TestSplitShardAddrs(t *testing.T) {
	got := SplitShardAddrs(" host:1 ,host:2,, host:3,")
	want := []string{"host:1", "host:2", "host:3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("SplitShardAddrs = %v, want %v", got, want)
	}
	if SplitShardAddrs("") != nil {
		t.Errorf("empty list should parse to nil")
	}
}
