package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"diffserve/internal/allocator"
	"diffserve/internal/controller"
	"diffserve/internal/discriminator"
	"diffserve/internal/loadbalancer"
)

// TestWorkerKeepsSchedule runs one light worker over inproc at 200x
// through K back-to-back batch-1 queries. Each batch must run on the
// trace schedule — start at the previous batch's end, not at whenever
// the late timer and the completion round trip let the worker pull
// again — so the K completions span about K·exec. A worker that
// sleeps exec after each pull loses a timer overshoot (~0.12
// trace-seconds at 200x) per batch and spans K·(exec + 0.12). No
// query, the straggler submitted once the run has drained included,
// may be served faster than one batch-1 execution.
//
// The credit stops at one timer tick: after a completion that stalls
// for many exec, the worker must not replay the stall as GPU time, so
// the n batches behind it span at least n·exec less one tick.
func TestWorkerKeepsSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock schedule test skipped in -short mode")
	}
	f := newFixtures(t)
	exec := discriminator.LightExec(f.light, f.scorer, 1)
	const K = 20
	bound := K*exec + 0.25
	withinBestOfThree(t, func() (string, bool) {
		span := runBackToBack(t, f, K, exec)
		return fmt.Sprintf("%d batch-1 completions span %.3f trace-s, want <= %.3f (K·exec + 0.25)", K, span, bound), span <= bound
	})

	t.Run("stalled-complete", func(t *testing.T) {
		const after = 8
		span := runStalled(t, f, after, exec, 10*exec)
		t.Logf("%d batches after a %.3f trace-s stall span %.3f trace-s", after, 10*exec, span)
		if want := after*exec - timerTick.Seconds()/rigTimescale; span < want {
			t.Errorf("%d batches after a completion stalled %.3f trace-s span %.3f trace-s, want >= %.3f (n·exec - one timer tick): the stall was replayed as GPU time",
				after, 10*exec, span, want)
		}
	})
}

// TestBatchStart pins the start rule: a batch starts when its worker
// and its queue were ready, credited back from the pull's return by at
// most one tick, and never later than that return.
func TestBatchStart(t *testing.T) {
	const tick = 0.25
	for _, c := range []struct {
		name                      string
		ready, queuedAt, returned float64
		want                      float64
	}{
		{"never before QueuedAt", 9.875, 9.9375, 10, 9.9375},
		{"never before ReadyAt", 9.9375, 9.875, 10, 9.9375},
		{"never after the return: queued as the pull returned", 1, 10, 10, 10},
		{"never after the return: stamps from a clock ahead", 10.5, 11, 10, 10},
		{"both far behind, as after a stalled Complete: one tick of credit, not the stall", 4, 3, 10, 9.75},
	} {
		if got := batchStart(c.ready, c.queuedAt, c.returned, tick); got != c.want {
			t.Errorf("%s: batchStart(%v, %v, %v, %v) = %v, want %v", c.name, c.ready, c.queuedAt, c.returned, tick, got, c.want)
		}
	}
}

// runBackToBack feeds k batch-1 queries at once to a fresh light worker
// at 200x, then one straggler, and returns the span of the k
// completions. Every record must be served, no faster than exec.
func runBackToBack(t *testing.T, f *fixtures, k int, exec float64) float64 {
	t.Helper()
	r := newScheduleRig(t, f, exec, nil)
	defer r.stop()
	r.submit(k)
	first, last := math.Inf(1), math.Inf(-1)
	for _, c := range r.completions() {
		first, last = math.Min(first, c), math.Max(last, c)
	}
	// A straggler lands while the worker is back in its long poll.
	r.submit(1)
	r.completions()
	return last - first
}

// runStalled feeds n+1 batch-1 queries at once to a fresh light worker
// whose first completion stalls for stall trace-seconds, and returns the
// span from that completion to the last of the n behind it.
func runStalled(t *testing.T, f *fixtures, n int, exec, stall float64) float64 {
	t.Helper()
	r := newScheduleRig(t, f, exec, func(c LBConn, clock *Clock) LBConn {
		return &stallFirstComplete{LBConn: c, clock: clock, stall: stall}
	})
	defer r.stop()
	r.submit(n + 1)
	cs := r.completions()
	sort.Float64s(cs)
	return cs[len(cs)-1] - cs[0]
}

// stallFirstComplete holds the first Complete it carries for stall
// trace-seconds before passing it on. Only the worker loop calls it.
type stallFirstComplete struct {
	LBConn
	clock   *Clock
	stall   float64
	stalled bool
}

func (c *stallFirstComplete) Complete(ctx context.Context, req CompleteRequest) error {
	if !c.stalled {
		c.stalled = true
		c.clock.WaitUntil(ctx, c.clock.Now()+c.stall, nil)
	}
	return c.LBConn.Complete(ctx, req)
}

// scheduleRig is one light batch-1 worker at 200x (rigTimescale) over
// inproc. The worker pulls through wrap(conn, clock) when wrap is set;
// the test submits and polls through conn.
type scheduleRig struct {
	t     *testing.T
	clock *Clock
	conn  LBConn
	exec  float64
	next  int // next query ID
	stop  func()
	// resolved is every result polled so far, without its features.
	resolved []QueryResponse
}

const rigTimescale = 0.005

func newScheduleRig(t *testing.T, f *fixtures, exec float64, wrap func(LBConn, *Clock) LBConn) *scheduleRig {
	t.Helper()
	clock := NewClock(rigTimescale)
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 1000,
		LightMinExec: exec, HeavyMinExec: f.heavy.Latency.Latency(1),
		Clock: clock, Seed: 1,
	})
	tp, err := NewTransport(TransportInproc)
	if err != nil {
		t.Fatal(err)
	}
	conn := serveTestLB(t, tp, lb)
	wconn := conn
	if wrap != nil {
		wconn = wrap(conn, clock)
	}
	ws := NewWorkerServer(WorkerConfig{
		LB: wconn, Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
		Clock: clock, DisableLoadDelay: true,
	})
	ws.Configure(ConfigureWorkerRequest{Role: "light", Batch: 1})
	ctx, cancel := context.WithCancel(context.Background())
	var loop sync.WaitGroup
	loop.Add(1)
	go func() {
		defer loop.Done()
		ws.Loop(ctx)
	}()
	return &scheduleRig{t: t, clock: clock, conn: conn, exec: exec, next: 1, stop: func() {
		cancel()
		loop.Wait()
		tp.Close()
	}}
}

// submit hands n fresh queries, all arriving now, to the LB and waits
// for their n results.
func (r *scheduleRig) submit(n int) {
	r.t.Helper()
	qs := make([]QueryMsg, n)
	now := r.clock.Now()
	for i := range qs {
		qs[i] = QueryMsg{ID: r.next, Arrival: now}
		r.next++
	}
	ctx := context.Background()
	if err := r.conn.SubmitBatch(ctx, SubmitRequest{Queries: qs}); err != nil {
		r.t.Fatal(err)
	}
	wait := 20 * float64(n) * r.exec
	var resp ResultsResponse
	for got := 0; got < n; got += len(resp.Results) {
		if err := r.conn.PollResultsInto(ctx, ResultsRequest{Max: n, Wait: wait}, &resp); err != nil {
			r.t.Fatal(err)
		}
		if len(resp.Results) == 0 {
			r.t.Fatalf("no result within %g trace-seconds (%d of %d)", wait, got, n)
		}
		for _, res := range resp.Results {
			res.Features = nil
			r.resolved = append(r.resolved, res)
		}
	}
}

// completions checks that every result polled so far was served, none
// faster than the pool's MinExec, and returns their completion times.
func (r *scheduleRig) completions() []float64 {
	r.t.Helper()
	recs := r.resolved
	if len(recs) != r.next-1 {
		r.t.Fatalf("%d results, want %d", len(recs), r.next-1)
	}
	cs := make([]float64, 0, len(recs))
	for _, rec := range recs {
		if rec.Dropped {
			r.t.Errorf("query %d dropped", rec.ID)
		} else if rec.Completion-rec.Arrival < r.exec {
			r.t.Errorf("query %d served in %.4f trace-s, faster than the pool's MinExec %.4f", rec.ID, rec.Completion-rec.Arrival, r.exec)
		}
		cs = append(cs, rec.Completion)
	}
	return cs
}

// withinBestOfThree runs a wall-clock measurement up to three times and
// passes at the first that is in bounds. One late wake of a starved
// test process can push a single run out; a loop that drifts every step
// is out on every run.
func withinBestOfThree(t *testing.T, measure func() (string, bool)) {
	t.Helper()
	for attempt := 1; attempt <= 3; attempt++ {
		got, ok := measure()
		t.Logf("attempt %d: %s", attempt, got)
		if ok {
			return
		}
		if attempt == 3 {
			t.Error("out of bounds on every attempt: " + got)
		}
	}
}

// TestWaitUntilLandsWithinTick holds a schedule wait (no wake channel)
// to its deadline: 200 waits of a light batch-1 execution, 0.55 wall-ms
// at 200x, must overshoot by at most 0.25 ms in the median. A timer
// alone rounds such a wait up to the next whole millisecond (~0.5 ms
// late); where WaitUntil sleeps the last tick in the kernel, it lands
// within a few tens of microseconds. A long poll (a wake channel) stays
// on the timer and still returns on its wake.
func TestWaitUntilLandsWithinTick(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock precision test skipped in -short mode")
	}
	if !kernelSleep {
		t.Skip("no kernel sleep on this OS: schedule waits stay on the timer")
	}
	clock := NewClock(rigTimescale)
	ctx := context.Background()
	const waits, wait, bound = 200, 0.11, 0.25e-3 // trace-s, trace-s, wall-s
	withinBestOfThree(t, func() (string, bool) {
		over := make([]float64, waits)
		for i := range over {
			deadline := clock.Now() + wait
			clock.WaitUntil(ctx, deadline, nil)
			over[i] = (clock.Now() - deadline) * clock.Timescale()
		}
		sort.Float64s(over)
		med := over[waits/2]
		return fmt.Sprintf("median overshoot of %d waits of %.2f wall-ms: %.3f ms (p90 %.3f ms), want <= %.2f ms",
			waits, wait*rigTimescale*1e3, med*1e3, over[waits*9/10]*1e3, bound*1e3), med <= bound
	})

	wake := make(chan struct{})
	woke := make(chan bool, 1)
	go func() { woke <- clock.WaitUntil(ctx, clock.Now()+1e4, wake) }() // 50 wall-s
	close(wake)
	select {
	case ok := <-woke:
		if !ok {
			t.Error("a woken wait reported false")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a wait with a wake channel did not return on its wake")
	}
}

// fixedAlloc is an allocator that always returns the same plan, so a
// control tick costs next to nothing.
type fixedAlloc struct{}

func (fixedAlloc) Name() string { return "fixed" }
func (fixedAlloc) Allocate(allocator.Observation) (allocator.Plan, error) {
	return allocator.Plan{LightWorkers: 1, LightBatch: 1, HeavyBatch: 1, Feasible: true}, nil
}

// TestControlCadence runs ControllerLoop.Run for T trace-seconds at
// 200x: it must apply floor(T/Interval) ± 1 ticks. The interval is
// 7.5 wall-ms, a delay the runtime's poller rounds up to whole
// milliseconds, so a loop that sleeps Interval after each wake adds
// ~0.5 ms per tick and falls several ticks short.
func TestControlCadence(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock cadence test skipped in -short mode")
	}
	ctrl, err := controller.New(controller.Config{Alloc: fixedAlloc{}, Interval: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	const T = 150.0 // trace-seconds: 0.75 wall-seconds
	want := math.Floor(T / ctrl.Interval())
	withinBestOfThree(t, func() (string, bool) {
		ticks := runControlLoop(ctrl, T)
		return fmt.Sprintf("%v ticks in %v trace-seconds at interval %v, want %v ± 1", ticks, T, ctrl.Interval(), want), math.Abs(ticks-want) <= 1
	})
}

// runControlLoop runs a fresh ControllerLoop over ctrl for T
// trace-seconds at 200x and returns the ticks it applied.
func runControlLoop(ctrl *controller.Controller, T float64) float64 {
	clock := NewClock(0.005)
	loop := NewControllerLoop(ControllerConfig{
		Ctrl: ctrl, LB: &blindStatsConn{}, Workers: []WorkerConn{&flakyWorkerConn{}},
		Mode: loadbalancer.ModeCascade, Clock: clock,
	})
	before := len(ctrl.Plans())
	ctx, cancel := context.WithCancel(context.Background())
	end := clock.Now() + T
	var run sync.WaitGroup
	run.Add(1)
	go func() {
		defer run.Done()
		loop.Run(ctx)
	}()
	clock.WaitUntil(ctx, end, nil)
	cancel()
	run.Wait()
	return float64(len(ctrl.Plans()) - before)
}

// TestAdvanceSchedule pins ControllerLoop.Run's skip rule on a 1.5 s
// schedule: a due time that fell while a tick ran is skipped, one that
// passed before its tick started (a late wake) is owed and runs at
// once. In each row Run has already moved next past the due time the
// tick served (8.5 in the rows that owe nothing beforehand).
func TestAdvanceSchedule(t *testing.T) {
	for _, tc := range []struct {
		name       string
		next       float64
		owed       int
		start, end float64
		wantNext   float64
		wantOwed   int
	}{
		{"on time", 10, 0, 8.5, 8.6, 10, 0},
		{"ends on a due time", 10, 0, 8.5, 10, 10, 0},
		{"slow tick", 10, 0, 8.5, 11.8, 13, 0},
		{"late wake", 10, 0, 10.3, 10.4, 11.5, 1},
		{"late wake, three due times", 10, 0, 13.2, 13.3, 14.5, 3},
		{"late wake and slow tick", 10, 0, 10.3, 12, 13, 1},
		{"owed tick on time", 13, 1, 12, 12.1, 13, 1},
		{"owed tick, late and slow", 13, 1, 13.2, 16.1, 17.5, 2},
	} {
		next, owed := advanceSchedule(tc.next, tc.owed, 1.5, tc.start, tc.end)
		if next != tc.wantNext || owed != tc.wantOwed {
			t.Errorf("%s: advanceSchedule(%v, %d, 1.5, %v, %v) = %v, %d; want %v, %d",
				tc.name, tc.next, tc.owed, tc.start, tc.end, next, owed, tc.wantNext, tc.wantOwed)
		}
	}
}
