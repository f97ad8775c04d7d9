package cluster

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"diffserve/internal/loadbalancer"
	"diffserve/internal/queueing"
	"diffserve/internal/trace"
)

// TestHarnessReshardTopology replays a lightly loaded trace through a
// 2-shard TCP topology that grows to 3 shards and shrinks back to 2
// mid-trace, and requires the same loss-free outcome a static
// topology produces: every query resolves exactly once, none drop.
// The run covers the full resharding protocol end to end — epoch
// flips under workers pulling through the frontend, the drain
// migration of the removed shard's queued work, and the retired
// member's finalization by its pump.
func TestHarnessReshardTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("reshard harness skipped in -short mode")
	}
	f := newFixtures(t)
	tr, err := trace.Static(4, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(HarnessConfig{
		Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
		Mode: loadbalancer.ModeCascade, Workers: 9, SLO: 5,
		Trace: tr, Ctrl: f.controller(t, 9, 5),
		Timescale: 0.05, Seed: 4242, DisableLoadDelay: true,
		Transport: TransportTCP, LBShards: 2,
		Reshard: []ReshardEvent{
			{At: 12, Action: "add", Member: 2},
			{At: 26, Action: "remove", Member: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collector.Len() != res.Queries {
		t.Errorf("recorded %d of %d queries", res.Collector.Len(), res.Queries)
	}
	sum := res.Summary()
	if sum.DropRatio != 0 {
		t.Errorf("reshard run dropped %.3f under light load", sum.DropRatio)
	}
	ids := map[int]bool{}
	for _, r := range res.Collector.Records() {
		if ids[r.ID] {
			t.Errorf("query %d recorded twice", r.ID)
		}
		ids[r.ID] = true
	}
	t.Logf("reshard harness: %d queries, FID=%.2f viol=%.3f wall=%.1fs",
		sum.Queries, sum.FID, sum.ViolationRatio, res.WallSeconds)
}

// queuedLight lists the IDs queued in an LBServer's light pool, in
// queue order, without dequeuing them.
func queuedLight(lb *LBServer) []int {
	p := &lb.pools[loadbalancer.PoolLight]
	p.mu.Lock()
	defer p.mu.Unlock()
	var ids []int
	p.DropWhere(func(it queueing.Item) bool { ids = append(ids, it.ID); return false })
	return ids
}

// TestReshardMovesOnlyDepartingQueue pins why the tier needs no
// minimal-movement placement: a membership change never moves a query
// that stays queued on a surviving member. An add drains nothing, and a
// remove re-homes only the departing member's queue; completions then
// follow each query to wherever it was sent, and every query resolves
// exactly once.
func TestReshardMovesOnlyDepartingQueue(t *testing.T) {
	const total = 60
	clock := NewClock(1e-5)
	ctx := context.Background()
	servers := map[int]*LBServer{}
	conns := make([]LBConn, 3)
	for m := range conns {
		servers[m], conns[m] = newLocalShard(clock, m)
	}
	fe, err := NewShardedLB(ShardedLBConfig{Shards: conns, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	if err := fe.Configure(ctx, ConfigureLBRequest{Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}
	qs := make([]QueryMsg, total)
	for i := range qs {
		qs[i] = QueryMsg{ID: i}
	}
	if err := fe.SubmitBatch(ctx, SubmitRequest{Queries: qs}); err != nil {
		t.Fatal(err)
	}
	before := map[int][]int{}
	for m, lb := range servers {
		before[m] = queuedLight(lb)
	}

	var conn3 LBConn
	servers[3], conn3 = newLocalShard(clock, 3)
	if err := fe.AddShard(ctx, 3, conn3); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		if got := queuedLight(servers[m]); !slices.Equal(got, before[m]) {
			t.Errorf("after add: member %d queues %v, want %v", m, got, before[m])
		}
	}
	if got := queuedLight(servers[3]); len(got) != 0 {
		t.Errorf("after add: new member 3 queues %v, want none", got)
	}

	if err := fe.RemoveShard(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if got := queuedLight(servers[1]); len(got) != 0 {
		t.Errorf("after remove: member 1 still queues %v", got)
	}
	// Every survivor keeps its old queue as a prefix; what it gained is
	// exactly member 1's former queue, spread over the survivors.
	var gained []int
	for _, m := range []int{0, 2, 3} {
		got := queuedLight(servers[m])
		if len(got) < len(before[m]) || !slices.Equal(got[:len(before[m])], before[m]) {
			t.Errorf("after remove: member %d queues %v, want its old queue %v first", m, got, before[m])
			continue
		}
		gained = append(gained, got[len(before[m]):]...)
	}
	slices.Sort(gained)
	want := slices.Clone(before[1])
	slices.Sort(want)
	if !slices.Equal(gained, want) {
		t.Errorf("after remove: survivors gained %v, want member 1's former queue %v", gained, want)
	}

	seen := map[int]int{}
	deadline := time.Now().Add(20 * time.Second)
	for len(seen) < total {
		if time.Now().After(deadline) {
			t.Fatalf("resolved %d of %d queries", len(seen), total)
		}
		if resp, err := pull(ctx, fe, PullRequest{Role: "light", Max: total, Wait: 5}); err == nil && len(resp.Queries) > 0 {
			items := make([]CompleteItem, len(resp.Queries))
			for i, q := range resp.Queries {
				items[i] = CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: "light", Confidence: 0.95}
			}
			if err := fe.Complete(ctx, CompleteRequest{Role: "light", Items: items}); err != nil {
				t.Fatal(err)
			}
		}
		rr, err := pollResults(ctx, fe, ResultsRequest{Max: total, Wait: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rr.Results {
			seen[r.ID]++
		}
	}
	// A late duplicate would surface within this last poll.
	rr, err := pollResults(ctx, fe, ResultsRequest{Max: total, Wait: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rr.Results {
		seen[r.ID]++
	}
	for id := 0; id < total; id++ {
		if seen[id] != 1 {
			t.Errorf("query %d resolved %d times", id, seen[id])
		}
	}
}

// TestReshardChaosNoLostOrDoubleResolve is the resharding soak: while
// batch submitters, shard-pinned pull/complete workers, frontend
// sweep workers, and merged-result pollers all race, a chaos driver
// adds and removes shards — ending on a membership that shares no
// member with the starting one. Every query must resolve exactly
// once: zero lost (a migrated or straggler query that never
// resolves), zero double-resolved (a stale registration surviving a
// migration and resolving a second time). It extends
// TestDrainCompleteRaceNoDoubleResolve's idempotency guarantees to
// epoch flips and drain migration, and runs in -short mode on
// purpose: the verify script's race-reshard leg executes it under
// -race.
func TestReshardChaosNoLostOrDoubleResolve(t *testing.T) {
	const (
		submitters = 3
		batches    = 30
		batchSize  = 8
		total      = submitters * batches * batchSize
	)
	clock := NewClock(1e-5)
	newShard := func(member int) (*LBServer, LBConn) {
		lb := NewLBServer(LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: 1e9,
			LightMinExec: 0.1, HeavyMinExec: 1.78,
			Clock: clock, Seed: 1, RNGStream: fmt.Sprintf("lb/%d", member),
		})
		return lb, NewLocalLBConn(lb)
	}
	servers := map[int]*LBServer{}
	lb0, conn0 := newShard(0)
	lb1, conn1 := newShard(1)
	servers[0], servers[1] = lb0, lb1
	fe, err := NewShardedLB(ShardedLBConfig{
		Shards: []LBConn{conn0, conn1}, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fe.Configure(context.Background(), ConfigureLBRequest{Threshold: 0.5})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ledger := newDeliveryLedger(total)
	resolved := &ledger.total
	var wg sync.WaitGroup

	// Merged-result pollers, two parking and one zero-wait: their
	// caller-side gathers race the pumps (and the reshards retiring the
	// shards they gather from) for the same results.
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
				conf = 0.1 // defers to the owning shard's heavy pool
			}
			items[i] = CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: role, Confidence: conf}
		}
		_ = conn.Complete(ctx, CompleteRequest{Role: role, Items: items})
	}
	// Shard-pinned workers that pick a current member afresh each
	// round. Completions go back to the conn the batch was pulled
	// from, retired or not.
	for w := 0; w < 2; w++ {
		for _, role := range []string{"light", "heavy"} {
			wg.Add(1)
			go func(w int, role string) {
				defer wg.Done()
				for resolved.Load() < total && ctx.Err() == nil {
					ms := fe.Members()
					conn := fe.memberConn(ms[w%len(ms)])
					if conn == nil {
						continue
					}
					resp, err := pull(ctx, conn, PullRequest{Role: role, Max: batchSize, Wait: 20})
					if err != nil || len(resp.Queries) == 0 {
						continue
					}
					complete(conn, role, resp.Queries)
				}
			}(w, role)
		}
	}
	// Frontend sweep workers: their completions route by the frontend's
	// record of where each query was sent, the path a reshard races
	// hardest.
	for _, role := range []string{"light", "heavy"} {
		wg.Add(1)
		go func(role string) {
			defer wg.Done()
			for resolved.Load() < total && ctx.Err() == nil {
				resp, err := pull(ctx, fe, PullRequest{Role: role, Max: batchSize, Wait: 20})
				if err != nil || len(resp.Queries) == 0 {
					continue
				}
				complete(fe, role, resp.Queries)
			}
		}(role)
	}

	// Submitters race the chaos driver below.
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

	// Chaos driver: grow to {0,1,2}, drop 0, grow to {1,2,3}, drop 1 —
	// the final membership shares nothing with the starting one, so
	// every key has migrated at least once.
	wg.Add(1)
	go func() {
		defer wg.Done()
		step := func(f func() error) bool {
			time.Sleep(2 * time.Millisecond)
			if ctx.Err() != nil {
				return false
			}
			if err := f(); err != nil {
				t.Errorf("chaos reshard: %v", err)
				return false
			}
			return true
		}
		lb2, conn2 := newShard(2)
		servers[2] = lb2
		if !step(func() error { return fe.AddShard(ctx, 2, conn2) }) {
			return
		}
		if !step(func() error { return fe.RemoveShard(ctx, 0) }) {
			return
		}
		lb3, conn3 := newShard(3)
		servers[3] = lb3
		if !step(func() error { return fe.AddShard(ctx, 3, conn3) }) {
			return
		}
		if !step(func() error { return fe.RemoveShard(ctx, 1) }) {
			return
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		cancel()
		t.Fatalf("reshard chaos wedged: resolved %d of %d (lost queries)", resolved.Load(), total)
	}
	if got := resolved.Load(); got != total {
		t.Fatalf("resolved %d of %d queries", got, total)
	}
	ledger.check(t)
	if got, want := fmt.Sprint(fe.Members()), fmt.Sprint([]int{2, 3}); got != want {
		t.Errorf("final membership %s, want %s", got, want)
	}
	if fe.Epoch() != 4 {
		t.Errorf("final epoch %d, want 4", fe.Epoch())
	}

	// Exactly-once accounting across every shard that ever existed:
	// each ID recorded exactly once, nothing dropped (unbounded SLO),
	// merged counters balance.
	st, err := fe.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != total || st.Dropped != 0 {
		t.Errorf("merged accounting: completed %d dropped %d, want %d / 0", st.Completed, st.Dropped, total)
	}
	seen := map[int]int{}
	recorded := 0
	for member, lb := range servers {
		for _, rec := range lb.Collector().Records() {
			if rec.Dropped {
				t.Errorf("query %d dropped on member %d", rec.ID, member)
			}
			seen[rec.ID]++
			recorded++
		}
	}
	if recorded != total {
		t.Errorf("collectors recorded %d of %d", recorded, total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("query %d recorded %d times (double resolve)", id, n)
		}
	}
}
