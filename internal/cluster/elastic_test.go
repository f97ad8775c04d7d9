package cluster

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"diffserve/internal/loadbalancer"
)

// waitUntil polls cond every few milliseconds until it holds or the
// deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newLocalShard builds one LB shard on the chaos-test configuration:
// huge SLO (nothing sheds), per-member RNG stream.
func newLocalShard(clock *Clock, member int) (*LBServer, LBConn) {
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 1e9,
		LightMinExec: 0.1, HeavyMinExec: 1.78,
		Clock: clock, Seed: 1, RNGStream: fmt.Sprintf("lb/%d", member),
	})
	return lb, NewLocalLBConn(lb)
}

// TestManyReshardsLeaveNothingTracked is the quiescence regression: 50
// membership changes, each with live traffic, must leave no state
// behind. Once every query resolves, the frontend tracks none of them
// and every retired member has finalized.
func TestManyReshardsLeaveNothingTracked(t *testing.T) {
	const (
		rounds    = 25 // add + remove per round = 50 reshards
		batchSize = 8
	)
	clock := NewClock(1e-5)
	ctx := context.Background()
	_, conn0 := newLocalShard(clock, 0)
	_, conn1 := newLocalShard(clock, 1)
	fe, err := NewShardedLB(ShardedLBConfig{
		Shards: []LBConn{conn0, conn1}, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	if err := fe.Configure(ctx, ConfigureLBRequest{Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}

	seen := map[int]int{}
	nextID := 0
	for round := 0; round < rounds; round++ {
		member := 2 + round
		_, conn := newLocalShard(clock, member)
		if err := fe.AddShard(ctx, member, conn); err != nil {
			t.Fatalf("round %d: add %d: %v", round, member, err)
		}
		// One batch rides each membership: submitted into the new
		// epoch, executed, and resolved before the member retires.
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
		if err := fe.RemoveShard(ctx, member); err != nil {
			t.Fatalf("round %d: remove %d: %v", round, member, err)
		}
	}

	if got, want := fe.Epoch(), 2*rounds; got != want {
		t.Errorf("final epoch = %d, want %d", got, want)
	}
	if len(seen) != rounds*batchSize {
		t.Errorf("resolved %d distinct queries, want %d", len(seen), rounds*batchSize)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("query %d resolved %d times", id, n)
		}
	}
	fe.liveMu.Lock()
	tracked := len(fe.sentTo)
	fe.liveMu.Unlock()
	if tracked != 0 {
		t.Errorf("%d reshards left %d queries tracked, want 0", 2*rounds, tracked)
	}
	waitUntil(t, 30*time.Second, "retired members to finalize", func() bool {
		return len(fe.RetiredMembers()) == 0
	})
}

// TestRetiredPumpsTerminate checks that a retired member's result pump
// and straggler sweep both exit once the member quiesces, instead of
// long-polling a dead shard forever. Asserted by goroutine count so a
// regression shows up under -race as well.
func TestRetiredPumpsTerminate(t *testing.T) {
	clock := NewClock(1e-5)
	ctx := context.Background()
	_, conn0 := newLocalShard(clock, 0)
	_, conn1 := newLocalShard(clock, 1)
	fe, err := NewShardedLB(ShardedLBConfig{
		Shards: []LBConn{conn0, conn1}, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	if err := fe.Configure(ctx, ConfigureLBRequest{Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}
	// Pump startup is lazy: one results poll ignites it, so members
	// added later get a pump goroutine each.
	if _, err := pollResults(ctx, fe, ResultsRequest{Max: 1, Wait: 0.01}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the two boot pumps settle
	base := runtime.NumGoroutine()

	const extra = 6
	for m := 2; m < 2+extra; m++ {
		_, conn := newLocalShard(clock, m)
		if err := fe.AddShard(ctx, m, conn); err != nil {
			t.Fatalf("add %d: %v", m, err)
		}
	}
	if g := runtime.NumGoroutine(); g < base+extra {
		t.Errorf("after adds: %d goroutines (base %d), want at least one pump per added member", g, base)
	}
	for m := 2; m < 2+extra; m++ {
		if err := fe.RemoveShard(ctx, m); err != nil {
			t.Fatalf("remove %d: %v", m, err)
		}
	}
	waitUntil(t, 30*time.Second, "retired members to finalize", func() bool {
		return len(fe.RetiredMembers()) == 0
	})
	// Every retired pump and sweep must exit; allow a little slack for
	// unrelated runtime goroutines.
	waitUntil(t, 30*time.Second, "retired pumps and sweeps to exit", func() bool {
		return runtime.NumGoroutine() <= base+2
	})
}
