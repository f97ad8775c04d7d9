package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"diffserve/internal/loadbalancer"
)

// deliveryLedger counts, from any number of polling goroutines, how
// often each query ID came out of the merged result stream.
type deliveryLedger struct {
	counts []atomic.Int32
	total  atomic.Int64
}

func newDeliveryLedger(ids int) *deliveryLedger {
	return &deliveryLedger{counts: make([]atomic.Int32, ids)}
}

func (l *deliveryLedger) record(results []QueryResponse) {
	for _, r := range results {
		l.counts[r.ID].Add(1)
	}
	l.total.Add(int64(len(results)))
}

// check requires every ID to have been delivered exactly once.
func (l *deliveryLedger) check(t *testing.T) {
	t.Helper()
	for id := range l.counts {
		if n := l.counts[id].Load(); n != 1 {
			t.Errorf("query %d delivered %d times, want exactly once", id, n)
		}
	}
}

// idsPerShard returns perShard query IDs owned by each of n modulus
// shards, counting up from from, so a test can rely on every shard
// holding work.
func idsPerShard(n, perShard, from int) []int {
	var ids []int
	have := make([]int, n)
	for id := from; len(ids) < n*perShard; id++ {
		if sh := loadbalancer.ShardOf(id, n); have[sh] < perShard {
			have[sh]++
			ids = append(ids, id)
		}
	}
	return ids
}

func queriesFor(ids []int) []QueryMsg {
	qs := make([]QueryMsg, len(ids))
	for i, id := range ids {
		qs[i] = QueryMsg{ID: id, Arrival: 0.001}
	}
	return qs
}

// completeAll reports every pulled query as served with the given
// confidence, echoing the pull's lease deadline.
func completeAll(ctx context.Context, conn LBConn, workerID int, role string, pulled PullResponse, conf float64) error {
	req := CompleteRequest{WorkerID: workerID, Role: role, LeaseDeadline: pulled.LeaseDeadline}
	for _, q := range pulled.Queries {
		req.Items = append(req.Items, CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: role, Confidence: conf})
	}
	return conn.Complete(ctx, req)
}

// TestShardedLBLateCompletionCounted pins the lease echo through the
// fan-out: a zombie's report, routed by the frontend to the shard that
// reclaimed and re-served its query, must count as a late completion
// there. The fanned-out legs used to drop CompleteRequest.LeaseDeadline,
// so behind a multi-shard frontend the counter never moved.
func TestShardedLBLateCompletionCounted(t *testing.T) {
	// The membership is fixed, so the one case is the unresharded one;
	// the subtest keeps the name it has always been reported under.
	t.Run("reshard=false", func(t *testing.T) {
		clock := NewClock(0.001)
		newShard := func(shard int) LBConn {
			return NewLocalLBConn(NewLBServer(LBConfig{
				Mode: loadbalancer.ModeCascade, SLO: 1e9,
				LightMinExec: 0.1, HeavyMinExec: 1.78,
				Clock: clock, Seed: 1, RNGStream: fmt.Sprintf("lb/%d", shard),
				LeaseDuration: 0.5,
			}))
		}
		fe, err := NewShardedLB(ShardedLBConfig{Shards: []LBConn{newShard(0), newShard(1)}, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		defer fe.Close()
		ctx := context.Background()

		if err := fe.SubmitBatch(ctx, SubmitRequest{Queries: queriesFor(idsPerShard(2, 2, 0))}); err != nil {
			t.Fatal(err)
		}
		zombie, err := pull(ctx, fe, PullRequest{WorkerID: 1, Role: "light", Max: 1})
		if err != nil || len(zombie.Queries) != 1 || zombie.LeaseDeadline <= 0 {
			t.Fatalf("zombie pull = %+v, %v", zombie, err)
		}
		// Worker 1 goes silent past the lease's hard cap; worker 2's pull
		// reclaims its query and gathers it with the other three.
		clock.WaitUntil(ctx, clock.Now()+3, nil)
		live, err := pull(ctx, fe, PullRequest{WorkerID: 2, Role: "light", Max: 8})
		if err != nil || len(live.Queries) != 4 {
			t.Fatalf("reclaiming pull = %+v, %v", live, err)
		}
		if err := completeAll(ctx, fe, 2, "light", live, 0.9); err != nil {
			t.Fatal(err)
		}
		if err := completeAll(ctx, fe, 1, "light", zombie, 0.9); err != nil {
			t.Fatal(err)
		}
		st, err := fe.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed != 4 || st.Reclaims != 1 || st.LateCompletions != 1 {
			t.Errorf("completed %d, reclaims %d, late completions %d; want 4, 1, 1", st.Completed, st.Reclaims, st.LateCompletions)
		}

	})
}

// TestShardedLBMixedLegs drives the full cycle through a frontend whose
// members are half in-process and half behind tcp, so one fan-out runs
// inline legs, a goroutine leg and the caller-kept remote leg together,
// and one collect merges a caller-side gather with pumped results.
func TestShardedLBMixedLegs(t *testing.T) {
	const shards, perShard = 4, 8
	tcp := newTCPTransport()
	defer tcp.Close()
	clock := NewClock(0.001)
	lbs := make([]*LBServer, shards)
	conns := make([]LBConn, shards)
	for i := range lbs {
		lbs[i] = NewLBServer(LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: 1e9,
			LightMinExec: 0.1, HeavyMinExec: 1.78,
			Clock: clock, Seed: 1, RNGStream: fmt.Sprintf("lb/%d", i),
		})
		var tp Transport = localTransport{}
		if i%2 == 1 {
			tp = tcp
		}
		conns[i] = serveTestLB(t, tp, lbs[i])
		if got, want := inProcess(conns[i]), i%2 == 0; got != want {
			t.Fatalf("shard %d: inProcess = %v, want %v", i, got, want)
		}
	}
	fe, err := NewShardedLB(ShardedLBConfig{Shards: conns, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	ctx := context.Background()

	// The broadcast reaches all four: every even ID defers below.
	if err := fe.Configure(ctx, ConfigureLBRequest{Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}
	ids := idsPerShard(shards, perShard, 0)
	total := len(ids)
	if err := fe.SubmitBatch(ctx, SubmitRequest{Queries: queriesFor(ids)}); err != nil {
		t.Fatal(err)
	}
	light, err := pull(ctx, fe, PullRequest{Role: "light", Max: total})
	if err != nil || len(light.Queries) != total {
		t.Fatalf("light pull gathered %d of %d: %v", len(light.Queries), total, err)
	}
	req := CompleteRequest{Role: "light"}
	deferred := 0
	for _, q := range light.Queries {
		conf := 0.9
		if q.ID%2 == 0 {
			conf, deferred = 0.1, deferred+1
		}
		req.Items = append(req.Items, CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: "light", Confidence: conf})
	}
	if err := fe.Complete(ctx, req); err != nil {
		t.Fatal(err)
	}
	heavy, err := pull(ctx, fe, PullRequest{Role: "heavy", Max: total})
	if err != nil || len(heavy.Queries) != deferred {
		t.Fatalf("heavy pull gathered %d of %d deferred: %v", len(heavy.Queries), deferred, err)
	}
	if err := completeAll(ctx, fe, 0, "heavy", heavy, 0.9); err != nil {
		t.Fatal(err)
	}

	ledger := newDeliveryLedger(ids[len(ids)-1] + 1)
	var resp ResultsResponse
	for ledger.total.Load() < int64(total) {
		if err := fe.PollResultsInto(ctx, ResultsRequest{Max: total, Wait: 10}, &resp); err != nil || len(resp.Results) == 0 {
			t.Fatalf("collect stalled at %d of %d: %v", ledger.total.Load(), total, err)
		}
		ledger.record(resp.Results)
	}
	for _, id := range ids {
		if n := ledger.counts[id].Load(); n != 1 {
			t.Errorf("query %d delivered %d times", id, n)
		}
	}
	st, err := fe.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != total || st.Dropped != 0 {
		t.Errorf("merged stats: completed %d dropped %d, want %d / 0", st.Completed, st.Dropped, total)
	}
}

// TestShardedLBCycleAllocs gates the frontend's steady-state cost: one
// 16-query cycle through 4 in-process shards — submit, gather-pull and
// complete for each role, collect — must stay at or under one
// allocation per query. What remains is one fan-out closure per
// SubmitBatch and Complete call, three a cycle; the pooled scratch,
// the deferral scratch, pull legs and result legs add none.
func TestShardedLBCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const shards, cycleQueries = 4, 16
	_, fe := newTestShards(t, shards, 1, 1e9)
	ctx := context.Background()
	if err := fe.Configure(ctx, ConfigureLBRequest{Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}
	queries := make([]QueryMsg, cycleQueries)
	items := make([]CompleteItem, 0, cycleQueries)
	feats := []float64{1, 2, 3, 4}
	var pulled PullResponse
	var results ResultsResponse
	next := 0
	cycle := func() {
		heavy := 0
		for j := range queries {
			queries[j] = QueryMsg{ID: next + j}
			if (next+j)%3 == 0 {
				heavy++
			}
		}
		next += cycleQueries
		if err := fe.SubmitBatch(ctx, SubmitRequest{Queries: queries}); err != nil {
			t.Fatal(err)
		}
		for _, leg := range []struct {
			role string
			want int
		}{{"light", cycleQueries}, {"heavy", heavy}} {
			if err := fe.PullInto(ctx, PullRequest{Role: leg.role, Max: cycleQueries}, &pulled); err != nil || len(pulled.Queries) != leg.want {
				t.Fatalf("%s pull gathered %d of %d: %v", leg.role, len(pulled.Queries), leg.want, err)
			}
			items = items[:0]
			for _, q := range pulled.Queries {
				conf := 0.9
				if leg.role == "light" && q.ID%3 == 0 {
					conf = 0.1
				}
				items = append(items, CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: leg.role, Features: feats, Confidence: conf})
			}
			if err := fe.Complete(ctx, CompleteRequest{Role: leg.role, Items: items, LeaseDeadline: pulled.LeaseDeadline}); err != nil {
				t.Fatal(err)
			}
		}
		// Usually one call; a pump that popped a shard's results first
		// lands them a moment later.
		for got := 0; got < cycleQueries; got += len(results.Results) {
			if err := fe.PollResultsInto(ctx, ResultsRequest{Max: cycleQueries, Wait: 10}, &results); err != nil || len(results.Results) == 0 {
				t.Fatalf("collect stalled at %d of %d: %v", got, cycleQueries, err)
			}
		}
	}
	for i := 0; i < 64; i++ { // warm the pools and the first growth steps
		cycle()
	}
	if got := testing.AllocsPerRun(500, cycle); got > cycleQueries {
		t.Errorf("%.1f allocs per %d-query cycle, want <= %d", got, cycleQueries, cycleQueries)
	} else {
		t.Logf("%.1f allocs per %d-query cycle", got, cycleQueries)
	}
}

// failingPullConn wraps an LBConn whose pulls fail while tripped.
type failingPullConn struct {
	LBConn
	fail atomic.Bool
}

// A failed pull leaves resp as the caller passed it, as a failed call
// over tcp does.
func (c *failingPullConn) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error {
	if c.fail.Load() {
		return fmt.Errorf("injected pull failure")
	}
	return c.LBConn.PullInto(ctx, req, resp)
}

// TestShardedLBGatherPullLegFailure pins what a failing shard costs a
// gather-pull: after another shard's share was gathered, only its own
// share — the gathered queries come back; with nothing gathered yet,
// the error itself comes back.
func TestShardedLBGatherPullLegFailure(t *testing.T) {
	clock := NewClock(0.001)
	conns := make([]LBConn, 2)
	for i := range conns {
		conns[i] = NewLocalLBConn(NewLBServer(LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: 1e9,
			LightMinExec: 0.1, HeavyMinExec: 1.78,
			Clock: clock, Seed: 1, RNGStream: fmt.Sprintf("lb/%d", i),
		}))
	}
	flaky := &failingPullConn{LBConn: conns[1]}
	conns[1] = flaky
	fe, err := NewShardedLB(ShardedLBConfig{Shards: conns, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	ctx := context.Background()
	if err := fe.SubmitBatch(ctx, SubmitRequest{Queries: queriesFor(idsPerShard(2, 3, 0))}); err != nil {
		t.Fatal(err)
	}
	flaky.fail.Store(true)

	// The sweep's rotating start alternates: shard 0 on the first pull,
	// shard 1 on the second, and so on.
	resp, err := pull(ctx, fe, PullRequest{Role: "light", Max: 2})
	if err != nil || len(resp.Queries) != 2 {
		t.Fatalf("pull filled from the healthy shard = %+v, %v", resp.Queries, err)
	}
	// Each round takes the failing shard's error first, then the healthy
	// shard's last query from a pull that fails on shard 1 after
	// gathering it. Rounds after the first re-fill shard 0.
	refill := 100
	for round := 0; round < 3; round++ {
		if round > 0 {
			for loadbalancer.ShardOf(refill, 2) != 0 {
				refill++
			}
			if err := fe.SubmitBatch(ctx, SubmitRequest{Queries: queriesFor([]int{refill})}); err != nil {
				t.Fatal(err)
			}
			refill++
		}
		if resp, err = pull(ctx, fe, PullRequest{Role: "light", Max: 6}); err == nil {
			t.Fatalf("pull starting at the failing shard returned %+v, want its error", resp.Queries)
		}
		resp, err = pull(ctx, fe, PullRequest{Role: "light", Max: 6})
		if err != nil || len(resp.Queries) != 1 {
			t.Fatalf("pull past the failing shard = %+v, %v; want the healthy shard's last query", resp.Queries, err)
		}
	}

	flaky.fail.Store(false)
	resp, err = pull(ctx, fe, PullRequest{Role: "light", Max: 6})
	if err != nil || len(resp.Queries) != 3 {
		t.Fatalf("pull after recovery = %+v, %v; want the failed shard's three queries", resp.Queries, err)
	}
}
