package cluster

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"diffserve/internal/loadbalancer"
	"diffserve/internal/worker"
)

// recordingLBConn logs the calls a worker makes, in order. Every
// Complete fails when failComplete is set; onBatch, when set, runs once
// a pull has returned a batch, before the worker sees it.
type recordingLBConn struct {
	LBConn
	failComplete bool
	onBatch      func()

	mu    sync.Mutex
	calls []workerCall
}

// workerCall is one logged call: a pull, logged as it is sent and
// given the IDs of the batch it returned, or a Complete with its
// items' IDs.
type workerCall struct {
	complete bool
	ids      []int
}

func (c *recordingLBConn) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error {
	c.mu.Lock()
	c.calls = append(c.calls, workerCall{})
	i := len(c.calls) - 1
	c.mu.Unlock()
	err := c.LBConn.PullInto(ctx, req, resp)
	if err != nil || len(resp.Queries) == 0 {
		return err
	}
	c.mu.Lock()
	for _, q := range resp.Queries {
		c.calls[i].ids = append(c.calls[i].ids, q.ID)
	}
	c.mu.Unlock()
	if c.onBatch != nil {
		c.onBatch()
	}
	return nil
}

func (c *recordingLBConn) Complete(ctx context.Context, req CompleteRequest) error {
	ids := make([]int, len(req.Items))
	for i, it := range req.Items {
		ids[i] = it.ID
	}
	c.mu.Lock()
	c.calls = append(c.calls, workerCall{complete: true, ids: ids})
	c.mu.Unlock()
	if c.failComplete {
		return errors.New("complete refused")
	}
	return c.LBConn.Complete(ctx, req)
}

func (c *recordingLBConn) log() []workerCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.calls)
}

// newTestWorker builds an inproc LB on clock and a worker that reaches
// it through rec, and returns them with the worker unconfigured.
func newTestWorker(f *fixtures, clock *Clock, rec *recordingLBConn) (*LBServer, *WorkerServer) {
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 1e9,
		LightMinExec: 0.1, HeavyMinExec: 1.78,
		Clock: clock, Seed: 1,
	})
	rec.LBConn = NewLocalLBConn(lb)
	return lb, NewWorkerServer(WorkerConfig{
		LB: rec, Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
		Clock: clock, DisableLoadDelay: true,
	})
}

// submitN hands n queries, numbered from 0 and arriving now, to lb.
func submitN(lb *LBServer, clock *Clock, n int) {
	qs := make([]QueryMsg, n)
	for i := range qs {
		qs[i] = QueryMsg{ID: i, Arrival: clock.Now()}
	}
	lb.SubmitBatchReq(SubmitRequest{Queries: qs})
}

// TestWorkerLoop pins what WorkerServer.Loop sends in three cases
// where the right count is zero or exact. None asserts a wall-clock
// bound, so all three run under -short.
func TestWorkerLoop(t *testing.T) {
	f := newFixtures(t)

	// A worker whose every Complete fails reports its batch exactly
	// completeTries times, always with the batch's IDs, and then pulls
	// again: the lease sweep, not the worker, re-runs the batch.
	t.Run("complete-retries-then-pulls", func(t *testing.T) {
		clock := NewClock(0.001)
		rec := &recordingLBConn{failComplete: true}
		lb, ws := newTestWorker(f, clock, rec)
		ws.Configure(ConfigureWorkerRequest{Role: "light", Batch: 4})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); ws.Loop(ctx) }()
		submitN(lb, clock, 4)
		// batchThenPull returns the index of the first pull that got a
		// batch and of the first pull after it, or -1.
		batchThenPull := func(calls []workerCall) (int, int) {
			b := slices.IndexFunc(calls, func(c workerCall) bool { return !c.complete && len(c.ids) > 0 })
			if b < 0 {
				return -1, -1
			}
			next := slices.IndexFunc(calls[b+1:], func(c workerCall) bool { return !c.complete })
			if next < 0 {
				return b, -1
			}
			return b, b + 1 + next
		}
		waitUntil(t, 10*time.Second, "a pull after the failed reports", func() bool {
			_, next := batchThenPull(rec.log())
			return next >= 0
		})
		cancel()
		<-done

		calls := rec.log()
		b, next := batchThenPull(calls)
		batch := calls[b].ids
		if len(batch) != 4 {
			t.Errorf("pulled %v, want the 4 submitted queries", batch)
		}
		if got := next - b - 1; got != completeTries {
			t.Errorf("%d calls between the batch's pull and the next pull, want %d reports", got, completeTries)
		}
		for _, c := range calls[b+1 : next] {
			if !c.complete || !slices.Equal(c.ids, batch) {
				t.Errorf("call %+v after the batch's pull, want a report of %v", c, batch)
			}
		}
	})

	// A worker whose ctx ends before its batch's end sends no report:
	// the ctx ends once the pull has returned the batch, which is
	// before the batch has run.
	t.Run("cancelled-mid-batch-reports-nothing", func(t *testing.T) {
		clock := NewClock(0.001)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rec := &recordingLBConn{onBatch: cancel}
		lb, ws := newTestWorker(f, clock, rec)
		ws.Configure(ConfigureWorkerRequest{Role: "light", Batch: 4})
		done := make(chan struct{})
		go func() { defer close(done); ws.Loop(ctx) }()
		submitN(lb, clock, 4)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Loop did not return after its ctx ended")
		}
		for _, c := range rec.log() {
			if c.complete {
				t.Errorf("reported %v after the ctx ended mid-batch", c.ids)
			}
		}
		if st := lb.Stats(); st.Completed != 0 {
			t.Errorf("LB completed %d queries, want 0", st.Completed)
		}
	})

	// A worker that has never been configured has no role and sends no
	// pull, however long it runs.
	t.Run("unconfigured-sends-no-pull", func(t *testing.T) {
		clock := NewClock(0.01)
		rec := &recordingLBConn{}
		_, ws := newTestWorker(f, clock, rec)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); ws.Loop(ctx) }()
		until := clock.Now() + 20*workerBackoff
		waitUntil(t, 10*time.Second, "20 idle back-offs of trace time", func() bool { return clock.Now() >= until })
		cancel()
		<-done
		if calls := rec.log(); len(calls) != 0 {
			t.Errorf("an unconfigured worker made %d calls, want none", len(calls))
		}
	})
}

// TestWorkerCycleAllocs drives the worker's two steps by hand, with no
// Loop and no wait, and gates one 4-query light cycle's allocations:
// submit, pull, finish, poll. Trace time runs 10^7 times faster than
// wall time, so each batch has ended by the next cycle's pull. What
// remains is three per image: the sampled query, its content vector
// and the generated image's features; the pull response, the
// completion items and the LB's buffers are reused. Generating through
// the query's memo (GenerateDeterministic) read 16.
func TestWorkerCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n, budget = 4, 12
	f := newFixtures(t)
	clock := NewClock(1e-7)
	rec := &recordingLBConn{}
	_, ws := newTestWorker(f, clock, rec)
	conn := rec.LBConn // the steps need no recording
	ws.cfg.LB = conn
	ws.Configure(ConfigureWorkerRequest{Role: "light", Batch: n})
	ctx := context.Background()
	queries := make([]QueryMsg, n)
	var pulled PullResponse
	var items []CompleteItem
	var results ResultsResponse
	next := 0
	cycle := func() {
		for i := range queries {
			queries[i] = QueryMsg{ID: next, Arrival: clock.Now()}
			next++
		}
		if err := conn.SubmitBatch(ctx, SubmitRequest{Queries: queries}); err != nil {
			t.Fatal(err)
		}
		if _, role := ws.pull(ctx, clock.Now(), &pulled); role != worker.RoleLight || len(pulled.Queries) != n {
			t.Fatalf("pull returned role %v with %d queries, want light with %d", role, len(pulled.Queries), n)
		}
		items = ws.finish(ctx, worker.RoleLight, &pulled, items)
		if err := conn.PollResultsInto(ctx, ResultsRequest{Max: n}, &results); err != nil || len(results.Results) != n {
			t.Fatalf("polled %d of %d results: %v", len(results.Results), n, err)
		}
	}
	for i := 0; i < 64; i++ { // warm the pools and the first growth steps
		cycle()
	}
	if got := testing.AllocsPerRun(500, cycle); got > budget {
		t.Errorf("%.1f allocs per %d-query worker cycle, want <= %d", got, n, budget)
	} else {
		t.Logf("%.1f allocs per %d-query worker cycle", got, n)
	}
}
