package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"diffserve/internal/allocator"
	"diffserve/internal/loadbalancer"
)

// blindStatsConn is an LBConn stub whose Stats calls fail while
// tripped, recording every Configure push so a test can observe the
// plans a blind controller applies. Like a real conn it fails a
// Configure whose context has ended. Its connection-loss count (see
// lossCounter) moves only when a test calls lose.
type blindStatsConn struct {
	mu      sync.Mutex
	fail    bool
	lastCfg ConfigureLBRequest
	cfgs    int
	losses  uint64
}

func (c *blindStatsConn) setFail(v bool) {
	c.mu.Lock()
	c.fail = v
	c.mu.Unlock()
}

func (c *blindStatsConn) lose() {
	c.mu.Lock()
	c.losses++
	c.mu.Unlock()
}

func (c *blindStatsConn) connLosses() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.losses
}

func (c *blindStatsConn) last() (ConfigureLBRequest, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastCfg, c.cfgs
}

func (c *blindStatsConn) SubmitBatch(ctx context.Context, req SubmitRequest) error { return nil }
func (c *blindStatsConn) PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) error {
	return nil
}
func (c *blindStatsConn) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error {
	return nil
}
func (c *blindStatsConn) Complete(ctx context.Context, req CompleteRequest) error { return nil }
func (c *blindStatsConn) Configure(ctx context.Context, req ConfigureLBRequest) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.lastCfg = req
	c.cfgs++
	c.mu.Unlock()
	return nil
}
func (c *blindStatsConn) Stats(ctx context.Context) (LBStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail {
		return LBStats{}, errors.New("stats poll severed")
	}
	return LBStats{Now: 1}, nil
}

// degradedMembers returns the shards s currently marks degraded,
// ascending. Merged Stats carry only their count
// (LBStats.DegradedShards).
func degradedMembers(s *ShardedLB) []int {
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	var out []int
	for i, d := range s.degraded {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// TestControllerConservativeFailover pins the stats-blindness budget:
// the loop tolerates maxStatsMisses-1 consecutive poll failures
// without touching its plan, fails over to the conservative plan
// (threshold and split zero, worker layout kept) at the budget, and
// resumes normal planning on the first successful poll, its miss count
// reset. The LB stub and the log lines are what it observes.
func TestControllerConservativeFailover(t *testing.T) {
	f := newFixtures(t)
	conn := &blindStatsConn{}
	var logMu sync.Mutex
	var logs []string
	loop := NewControllerLoop(ControllerConfig{
		Ctrl: f.controller(t, 2, 5), LB: conn,
		Mode: loadbalancer.ModeCascade, Clock: NewClock(0.001),
		Logf: func(format string, args ...interface{}) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	ctx := context.Background()
	loop.Apply(ctx, allocator.Plan{Threshold: 0.7, DeferFraction: 0.4, LightWorkers: 1, HeavyWorkers: 1})
	if cfg, n := conn.last(); n != 1 || cfg.Threshold != 0.7 {
		t.Fatalf("initial plan push = %+v (%d pushes)", cfg, n)
	}

	lastLog := func() string {
		logMu.Lock()
		defer logMu.Unlock()
		if len(logs) == 0 {
			return ""
		}
		return logs[len(logs)-1]
	}

	conn.setFail(true)
	loop.TickOnce(ctx)
	loop.TickOnce(ctx)
	if _, n := conn.last(); n != 1 {
		t.Fatalf("plan re-pushed during tolerated misses (%d pushes)", n)
	}
	if l := lastLog(); !strings.Contains(l, "(2 consecutive): keeping previous plan") {
		t.Fatalf("after two misses the log reads %q", l)
	}
	loop.TickOnce(ctx) // third consecutive miss: the budget
	cfg, n := conn.last()
	if n != 2 || cfg.Threshold != 0 || cfg.SplitProb != 0 {
		t.Fatalf("conservative plan push = %+v (%d pushes), want zero threshold and split", cfg, n)
	}
	if l := lastLog(); !strings.Contains(l, "3 consecutive stats-poll failures") || !strings.Contains(l, "failing over to conservative plan") {
		t.Fatalf("failover log reads %q", l)
	}
	loop.TickOnce(ctx) // a fourth miss must not re-push
	if _, n := conn.last(); n != 2 {
		t.Fatalf("conservative plan re-pushed on further misses (%d pushes)", n)
	}

	conn.setFail(false)
	loop.TickOnce(ctx)
	if _, n := conn.last(); n != 3 {
		t.Fatalf("recovered tick did not re-plan (%d pushes)", n)
	}
	if l := lastLog(); !strings.Contains(l, "recovered after 4 misses") {
		t.Fatalf("recovery log reads %q", l)
	}
	conn.setFail(true)
	loop.TickOnce(ctx) // a miss after recovery starts a fresh run
	if l := lastLog(); !strings.Contains(l, "(1 consecutive)") {
		t.Fatalf("first miss after recovery logs %q, want the run restarted at 1", l)
	}
}

// gateConn wraps an LBConn; while tripped, SubmitBatch and
// PollResults fail — the two calls the sharded frontend's degradation
// tracker watches.
type gateConn struct {
	LBConn
	mu   sync.Mutex
	down bool
}

func (c *gateConn) set(down bool) {
	c.mu.Lock()
	c.down = down
	c.mu.Unlock()
}

func (c *gateConn) isDown() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down
}

func (c *gateConn) SubmitBatch(ctx context.Context, req SubmitRequest) error {
	if c.isDown() {
		return errors.New("shard unreachable")
	}
	return c.LBConn.SubmitBatch(ctx, req)
}

func (c *gateConn) PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) error {
	if c.isDown() {
		return errors.New("shard unreachable")
	}
	return c.LBConn.PollResultsInto(ctx, req, resp)
}

// TestShardedLBDegradeSpill pins the shard-degradation lifecycle: an
// unreachable shard is marked degraded after the failure threshold,
// its hash range's new submits spill to the next shard (and
// their completions follow them there), the state surfaces through
// merged Stats, and recovery (the result pump probing successfully
// again) restores normal placement.
func TestShardedLBDegradeSpill(t *testing.T) {
	clock := NewClock(1e-3)
	newShard := func(member int) (*LBServer, LBConn) {
		lb := NewLBServer(LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: 1e9,
			LightMinExec: 0.1, HeavyMinExec: 1.78,
			Clock: clock, Seed: 1, RNGStream: fmt.Sprintf("lb/%d", member),
		})
		return lb, NewLocalLBConn(lb)
	}
	_, conn0 := newShard(0)
	_, conn1 := newShard(1)
	gate := &gateConn{LBConn: conn0}
	fe, err := NewShardedLB(ShardedLBConfig{
		Shards: []LBConn{gate, conn1}, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	ctx := context.Background()

	// IDs owned by each shard.
	ownedBy := func(member, n, from int) []int {
		var ids []int
		for id := from; len(ids) < n; id++ {
			if loadbalancer.ShardOf(id, 2) == member {
				ids = append(ids, id)
			}
		}
		return ids
	}
	submit := func(ids []int) error {
		qs := make([]QueryMsg, len(ids))
		for i, id := range ids {
			qs[i] = QueryMsg{ID: id}
		}
		return fe.SubmitBatch(ctx, SubmitRequest{Queries: qs})
	}
	pullIDs := func(conn LBConn) map[int]bool {
		got := map[int]bool{}
		for {
			resp, err := pull(ctx, conn, PullRequest{WorkerID: 1, Role: "light", Max: 64, Wait: 2})
			if err != nil || len(resp.Queries) == 0 {
				return got
			}
			for _, q := range resp.Queries {
				got[q.ID] = true
			}
		}
	}

	// Healthy tier: submits to member 0 land on member 0.
	first := ownedBy(0, 2, 0)
	if err := submit(first); err != nil {
		t.Fatal(err)
	}
	got := pullIDs(gate)
	for _, id := range first {
		if !got[id] {
			t.Fatalf("healthy submit to owner 0 missing id %d on shard 0 (got %v)", id, got)
		}
	}

	// Shard 0 goes dark: dispatch failures past the threshold degrade
	// it. (The pump is not running yet — PollResults was never called
	// — so the dispatch path alone must trip the marker.)
	gate.set(true)
	down := ownedBy(0, 1, 100)
	for i := 0; i < degradeThreshold; i++ {
		if err := submit(down); err == nil {
			t.Fatal("submit to an unreachable shard succeeded")
		}
	}
	if ms := degradedMembers(fe); len(ms) != 1 || ms[0] != 0 {
		t.Fatalf("degraded members = %v, want [0]", ms)
	}
	st, err := fe.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.DegradedShards != 1 {
		t.Fatalf("merged stats report %d degraded shards, want 1", st.DegradedShards)
	}

	// Spill: shard 0's hash range now lands on the next shard (shard 1,
	// the only other one) with no error.
	spill := ownedBy(0, 3, 200)
	if err := submit(spill); err != nil {
		t.Fatalf("spill submit errored: %v", err)
	}
	got = pullIDs(conn1)
	for _, id := range spill {
		if !got[id] {
			t.Fatalf("spilled id %d missing on shard 1 (got %v)", id, got)
		}
	}

	// Completed through the frontend, each spilled query goes to shard 1,
	// where it was sent — not to its owner — and resolves once.
	items := make([]CompleteItem, len(spill))
	for i, id := range spill {
		items[i] = CompleteItem{ID: id, Variant: "light", Confidence: 0.9}
	}
	if err := fe.Complete(ctx, CompleteRequest{WorkerID: 1, Role: "light", Items: items}); err != nil {
		t.Fatal(err)
	}
	resolved := map[int]int{}
	for deadline := time.Now().Add(5 * time.Second); len(resolved) < len(spill) && time.Now().Before(deadline); {
		rr, err := pollResults(ctx, fe, ResultsRequest{Max: 8, Wait: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rr.Results {
			resolved[r.ID]++
		}
	}
	if rr, err := pollResults(ctx, fe, ResultsRequest{Max: 8}); err != nil || len(rr.Results) != 0 {
		t.Fatalf("extra results after the spilled completions: %+v, %v", rr.Results, err)
	}
	if len(resolved) != len(spill) {
		t.Errorf("resolved %v, want each of %v once", resolved, spill)
	}
	for _, id := range spill {
		if resolved[id] != 1 {
			t.Errorf("spilled id %d resolved %d times, want once", id, resolved[id])
		}
	}

	// Recovery: the shard heals, the result pump's next successful
	// poll un-degrades it, and placement returns to the primary. (The
	// polls above started the pumps.)
	gate.set(false)
	deadline := time.Now().Add(10 * time.Second)
	for len(degradedMembers(fe)) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ms := degradedMembers(fe); len(ms) != 0 {
		t.Fatalf("shard never recovered: degraded members = %v", ms)
	}
	after := ownedBy(0, 2, 300)
	if err := submit(after); err != nil {
		t.Fatal(err)
	}
	got = pullIDs(gate)
	for _, id := range after {
		if !got[id] {
			t.Fatalf("post-recovery id %d missing on shard 0 (got %v)", id, got)
		}
	}
}

// flakyWorkerConn is a WorkerConn whose first failN Configure calls
// fail and which, like a real conn, fails a call whose context has
// ended; it remembers the last request that got through. losses is its
// connection-loss count (see lossCounter), which only a test moves.
type flakyWorkerConn struct {
	failN  int
	calls  int
	held   ConfigureWorkerRequest
	losses uint64
}

func (w *flakyWorkerConn) connLosses() uint64 { return w.losses }

func (w *flakyWorkerConn) Configure(ctx context.Context, req ConfigureWorkerRequest) error {
	w.calls++
	if err := ctx.Err(); err != nil {
		return err
	}
	if w.calls <= w.failN {
		return errors.New("configure severed")
	}
	w.held = req
	return nil
}

func (w *flakyWorkerConn) Stats(ctx context.Context) (WorkerStats, error) {
	return WorkerStats{}, nil
}

// TestControllerCountsConfigureErrors pins that a half-applied plan is
// visible and heals, and that healing costs only the worker that needs
// it: over three applies of one plan the LB and the healthy worker are
// configured once, while the worker whose first two sends fail stays unknown, is
// sent every time, and ends holding the role the first apply meant it
// to have. One log line per failed apply reports it.
func TestControllerCountsConfigureErrors(t *testing.T) {
	f := newFixtures(t)
	good, flaky := &flakyWorkerConn{}, &flakyWorkerConn{failN: 2}
	lb := &blindStatsConn{}
	var logs []string
	loop := NewControllerLoop(ControllerConfig{
		Ctrl: f.controller(t, 2, 5), LB: lb,
		Workers: []WorkerConn{good, flaky},
		Mode:    loadbalancer.ModeCascade, Clock: NewClock(0.001),
		Logf: func(format string, args ...interface{}) {
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	ctx := context.Background()
	plan := allocator.Plan{Threshold: 0.7, DeferFraction: 0.4, LightWorkers: 1, HeavyWorkers: 1, LightBatch: 4, HeavyBatch: 2}

	loop.Apply(ctx, plan)
	if len(logs) != 1 || flaky.calls != 1 {
		t.Fatalf("after first apply: %d log lines, flaky sent %d times; want 1 and 1", len(logs), flaky.calls)
	}
	if good.held.Role != "light" || flaky.held.Role != "" {
		t.Fatalf("after first apply: good holds %+v, flaky %+v", good.held, flaky.held)
	}
	loop.Apply(ctx, plan)
	if len(logs) != 2 || flaky.calls != 2 {
		t.Fatalf("after second apply: %d log lines, flaky sent %d times; want 2 and 2", len(logs), flaky.calls)
	}
	loop.Apply(ctx, plan)
	if want := (ConfigureWorkerRequest{Role: "heavy", Batch: 2}); flaky.held != want {
		t.Fatalf("flaky worker holds %+v after the healing re-send, want %+v", flaky.held, want)
	}
	if _, pushes := lb.last(); pushes != 1 {
		t.Errorf("LB configured %d times, want 1: it acknowledged the first apply's policy", pushes)
	}
	if good.calls != 1 || flaky.calls != 3 {
		t.Errorf("healthy worker configured %d times, flaky %d; want 1 (acknowledged, then skipped) and 3 (unknown until it acknowledges)", good.calls, flaky.calls)
	}
	// The LB acknowledged the first apply's policy, so only worker 1 is
	// re-sent: the second apply makes one RPC, not two.
	if len(logs) != 2 || !strings.Contains(logs[0], "1 of 3 configure RPCs failed") ||
		!strings.Contains(logs[1], "1 of 1 configure RPCs failed") {
		t.Errorf("want one log line per failed apply, counting the RPCs sent, got %q", logs)
	}
	for _, l := range logs {
		if !strings.HasSuffix(l, "the next apply re-sends workers [1]") {
			t.Errorf("log line %q does not name exactly worker 1 as re-sent", l)
		}
	}
}
