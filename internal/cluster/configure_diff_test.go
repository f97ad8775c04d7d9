package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"diffserve/internal/allocator"
	"diffserve/internal/loadbalancer"
)

// diffLoop builds a ControllerLoop over n recording worker conns. A
// failed configure would log a "half-applied" line, which fails the
// test: none of these conns fails unless its context has ended.
func diffLoop(t *testing.T, f *fixtures, n, shards int) (*ControllerLoop, *blindStatsConn, []*flakyWorkerConn) {
	t.Helper()
	lb := &blindStatsConn{}
	workers := make([]*flakyWorkerConn, n)
	conns := make([]WorkerConn, n)
	for i := range workers {
		workers[i] = &flakyWorkerConn{}
		conns[i] = workers[i]
	}
	loop := NewControllerLoop(ControllerConfig{
		Ctrl: f.controller(t, n, 5), LB: lb, Workers: conns, Shards: shards,
		Mode: loadbalancer.ModeCascade, Clock: NewClock(0.001),
		Logf: func(format string, args ...interface{}) {
			if msg := fmt.Sprintf(format, args...); strings.Contains(msg, "half-applied") {
				t.Errorf("unexpected failed configure: %s", msg)
			}
		},
	})
	return loop, lb, workers
}

func workerCalls(ws []*flakyWorkerConn) []int {
	calls := make([]int, len(ws))
	for i, w := range ws {
		calls[i] = w.calls
	}
	return calls
}

func totalCalls(ws []*flakyWorkerConn) int {
	n := 0
	for _, w := range ws {
		n += w.calls
	}
	return n
}

// TestControllerConfiguresOnlyChangedWorkers walks one loop through a
// role flip, two batch-only changes, a threshold-only change and an idle
// worker gaining a role: each apply must send exactly the workers whose
// (role, batch) request changed, and the LB only when its policy did;
// every worker and the LB must hold what the plan means them to.
func TestControllerConfiguresOnlyChangedWorkers(t *testing.T) {
	loop, lb, ws := diffLoop(t, newFixtures(t), 4, 0)
	ctx := context.Background()
	req := func(role string, batch int) ConfigureWorkerRequest {
		return ConfigureWorkerRequest{Role: role, Batch: batch}
	}
	steps := []struct {
		name   string
		plan   allocator.Plan
		sent   []int // workers configured by this apply
		lbSent bool  // whether this apply configures the LB
		held   []ConfigureWorkerRequest
	}{
		{"first apply sends everyone",
			allocator.Plan{LightWorkers: 2, HeavyWorkers: 1, LightBatch: 4, HeavyBatch: 2},
			[]int{0, 1, 2, 3}, true,
			[]ConfigureWorkerRequest{req("light", 4), req("light", 4), req("heavy", 2), req("idle", 4)}},
		{"same plan sends no one",
			allocator.Plan{LightWorkers: 2, HeavyWorkers: 1, LightBatch: 4, HeavyBatch: 2},
			nil, false,
			[]ConfigureWorkerRequest{req("light", 4), req("light", 4), req("heavy", 2), req("idle", 4)}},
		{"role flip: worker 1 light -> heavy",
			allocator.Plan{LightWorkers: 1, HeavyWorkers: 2, LightBatch: 4, HeavyBatch: 2},
			[]int{1}, false,
			[]ConfigureWorkerRequest{req("light", 4), req("heavy", 2), req("heavy", 2), req("idle", 4)}},
		{"heavy batch only: the two heavy workers",
			allocator.Plan{LightWorkers: 1, HeavyWorkers: 2, LightBatch: 4, HeavyBatch: 1},
			[]int{1, 2}, false,
			[]ConfigureWorkerRequest{req("light", 4), req("heavy", 1), req("heavy", 1), req("idle", 4)}},
		{"light batch only: the light worker, and the idle one, whose request carries it",
			allocator.Plan{LightWorkers: 1, HeavyWorkers: 2, LightBatch: 8, HeavyBatch: 1},
			[]int{0, 3}, false,
			[]ConfigureWorkerRequest{req("light", 8), req("heavy", 1), req("heavy", 1), req("idle", 8)}},
		{"threshold only: the LB alone",
			allocator.Plan{Threshold: 0.6, LightWorkers: 1, HeavyWorkers: 2, LightBatch: 8, HeavyBatch: 1},
			nil, true,
			[]ConfigureWorkerRequest{req("light", 8), req("heavy", 1), req("heavy", 1), req("idle", 8)}},
		{"idle worker 3 gains a role",
			allocator.Plan{Threshold: 0.6, LightWorkers: 2, HeavyWorkers: 2, LightBatch: 8, HeavyBatch: 1},
			[]int{3}, false,
			[]ConfigureWorkerRequest{req("light", 8), req("heavy", 1), req("heavy", 1), req("light", 8)}},
	}
	sent, lbSent := 0, 0
	for _, s := range steps {
		before := workerCalls(ws)
		loop.Apply(ctx, s.plan)
		want := append([]int(nil), before...)
		for _, i := range s.sent {
			want[i]++
		}
		for i, w := range ws {
			if w.calls != want[i] {
				t.Errorf("%s: worker %d configured %d times by this apply, want %d", s.name, i, w.calls-before[i], want[i]-before[i])
			}
			if w.held != s.held[i] {
				t.Errorf("%s: worker %d holds %+v, want %+v", s.name, i, w.held, s.held[i])
			}
		}
		if s.lbSent {
			lbSent++
		}
		cfg, pushes := lb.last()
		if pushes != lbSent {
			t.Errorf("%s: LB configured %d times so far, want %d (once per policy change)", s.name, pushes, lbSent)
		}
		if cfg.Threshold != s.plan.Threshold {
			t.Errorf("%s: LB holds threshold %v, want %v", s.name, cfg.Threshold, s.plan.Threshold)
		}
		sent += len(s.sent)
	}
	if got := totalCalls(ws); got != sent {
		t.Errorf("%d worker configures sent, want %d", got, sent)
	}
}

// TestControllerResendsAfterConnectionLoss covers the state an
// acknowledgement cannot vouch for: a process that restarted behind the
// same address, its configuration gone. Its conn reports the dropped
// connection (lossCounter), and the very next apply of an unchanged
// plan must send that receiver, and only it, with no error reported
// (diffLoop fails the test on one).
func TestControllerResendsAfterConnectionLoss(t *testing.T) {
	loop, lb, ws := diffLoop(t, newFixtures(t), 2, 0)
	ctx := context.Background()
	plan := allocator.Plan{Threshold: 0.6, LightWorkers: 1, HeavyWorkers: 1, LightBatch: 4, HeavyBatch: 2}
	loop.Apply(ctx, plan)
	loop.Apply(ctx, plan)
	want := ConfigureWorkerRequest{Role: "heavy", Batch: 2}
	if ws[1].held != want {
		t.Fatalf("worker 1 holds %+v after the first applies, want %+v", ws[1].held, want)
	}
	if got := workerCalls(ws); !slices.Equal(got, []int{1, 1}) {
		t.Fatalf("two applies of one plan configured the workers %v times, want [1 1]", got)
	}

	ws[1].held = ConfigureWorkerRequest{} // restarted behind the same address
	ws[1].losses++
	loop.Apply(ctx, plan)
	if ws[1].held != want {
		t.Errorf("worker 1 holds %+v after the apply following its connection loss, want %+v", ws[1].held, want)
	}
	if got := workerCalls(ws); !slices.Equal(got, []int{1, 2}) {
		t.Errorf("configure calls per worker %v, want [1 2]: worker 1 alone re-sent", got)
	}
	if _, pushes := lb.last(); pushes != 1 {
		t.Errorf("a worker's connection loss re-sent the LB policy (%d pushes, want 1)", pushes)
	}

	lb.lose()
	loop.Apply(ctx, plan)
	loop.Apply(ctx, plan)
	if cfg, pushes := lb.last(); pushes != 2 || cfg.Threshold != plan.Threshold {
		t.Errorf("after the LB's connection loss it holds %+v after %d pushes, want threshold %v after 2", cfg, pushes, plan.Threshold)
	}
	if got := workerCalls(ws); !slices.Equal(got, []int{1, 2}) {
		t.Errorf("the LB's connection loss configured the workers: calls %v, want [1 2]", got)
	}
}

// lossAfterAckConn is a worker conn whose connection drops right after
// it acknowledges its first configure: the loss races the send.
type lossAfterAckConn struct{ flakyWorkerConn }

func (w *lossAfterAckConn) Configure(ctx context.Context, req ConfigureWorkerRequest) error {
	err := w.flakyWorkerConn.Configure(ctx, req)
	if w.calls == 1 {
		w.losses++
	}
	return err
}

// TestControllerReadsLossesBeforeSending pins when the loop reads a
// receiver's connection-loss count: before the send. A loss that lands
// after the acknowledgement (the receiver may have restarted since)
// must show as a mismatch at the next apply, which re-sends; read after
// the send, the loss would be taken as acknowledged and never healed.
func TestControllerReadsLossesBeforeSending(t *testing.T) {
	w := &lossAfterAckConn{}
	loop := NewControllerLoop(ControllerConfig{
		Ctrl: newFixtures(t).controller(t, 1, 5), LB: &blindStatsConn{},
		Workers: []WorkerConn{w},
		Mode:    loadbalancer.ModeCascade, Clock: NewClock(0.001),
	})
	ctx := context.Background()
	plan := allocator.Plan{LightWorkers: 1, LightBatch: 4}
	for k, want := range []int{1, 2, 2} {
		loop.Apply(ctx, plan)
		if w.calls != want {
			t.Fatalf("after apply %d the worker was configured %d times, want %d", k+1, w.calls, want)
		}
	}
}

// TestControllerConservativeFailoverDiffed drives a diffing loop and a
// reference loop forced to re-send everything (its LB and worker
// acknowledgements wiped before every step), both striping over 2
// shards, through plan changes, a re-apply and the stats-blind
// conservative failover. After every step each worker and the LB must
// hold under diffing exactly what the full send leaves them holding;
// the LB is pushed only when its policy changes; and the failover,
// which keeps the worker layout and only zeroes the threshold, must
// reach the LB without configuring a single worker.
func TestControllerConservativeFailoverDiffed(t *testing.T) {
	f := newFixtures(t)
	const n = 8
	diffed, diffedLB, diffedWs := diffLoop(t, f, n, 2)
	full, fullLB, fullWs := diffLoop(t, f, n, 2)
	ctx := context.Background()
	both := func(name string, op func(*ControllerLoop)) {
		t.Helper()
		full.lbAcked = ackState[ConfigureLBRequest]{}
		for i := range full.acked {
			full.acked[i] = ackState[ConfigureWorkerRequest]{}
		}
		op(diffed)
		op(full)
		for i := range diffedWs {
			if diffedWs[i].held != fullWs[i].held {
				t.Fatalf("%s: worker %d holds %+v under diffing, %+v under a full send", name, i, diffedWs[i].held, fullWs[i].held)
			}
		}
		d, _ := diffedLB.last()
		r, _ := fullLB.last()
		if d.Threshold != r.Threshold || d.SplitProb != r.SplitProb {
			t.Fatalf("%s: LB holds %+v under diffing, %+v under a full send", name, d, r)
		}
	}
	planA := allocator.Plan{Threshold: 0.7, DeferFraction: 0.4, LightWorkers: 5, HeavyWorkers: 2, LightBatch: 4, HeavyBatch: 2}
	planB := allocator.Plan{Threshold: 0.5, DeferFraction: 0.2, LightWorkers: 3, HeavyWorkers: 5, LightBatch: 8, HeavyBatch: 2}
	both("plan A", func(l *ControllerLoop) { l.Apply(ctx, planA) })
	both("plan B", func(l *ControllerLoop) { l.Apply(ctx, planB) })
	both("plan B again, nothing moved", func(l *ControllerLoop) { l.Apply(ctx, planB) })

	before := workerCalls(diffedWs)
	diffedLB.setFail(true)
	fullLB.setFail(true)
	both("first stats miss", func(l *ControllerLoop) { l.TickOnce(ctx) })
	both("second stats miss", func(l *ControllerLoop) { l.TickOnce(ctx) })
	both("conservative failover", func(l *ControllerLoop) { l.TickOnce(ctx) })
	// Plan A, plan B and the failover each change the policy; the
	// re-apply of plan B and the two misses do not.
	if cfg, pushes := diffedLB.last(); cfg.Threshold != 0 || pushes != 3 {
		t.Errorf("conservative policy did not reach the LB: %+v (%d pushes, want 3)", cfg, pushes)
	}
	if _, pushes := fullLB.last(); pushes != 4 {
		t.Errorf("the full send pushed the LB %d times over 4 applies, want 4", pushes)
	}
	for i, w := range diffedWs {
		if w.calls != before[i] {
			t.Errorf("failover configured worker %d although its request did not change", i)
		}
	}
	if d, r := totalCalls(diffedWs), totalCalls(fullWs); d >= r {
		t.Errorf("diffing sent %d worker configures, the full send %d", d, r)
	}
}

// TestControllerResendsAfterCancelledApply pins that a send the caller's
// context cut short is a failed send: it is logged, the LB and the
// worker it was meant for are left unknown, and the next apply sends
// them again — while workers the cancelled apply did not need to reach
// are still skipped.
func TestControllerResendsAfterCancelledApply(t *testing.T) {
	loop, lb, ws := diffLoop(t, newFixtures(t), 3, 0)
	var logs []string
	loop.cfg.Logf = func(format string, args ...interface{}) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	ctx := context.Background()
	loop.Apply(ctx, allocator.Plan{LightWorkers: 2, HeavyWorkers: 1, LightBatch: 4, HeavyBatch: 2})

	// Worker 1 flips light -> heavy and the threshold moves; the apply
	// that says so is cancelled.
	flip := allocator.Plan{Threshold: 0.6, LightWorkers: 1, HeavyWorkers: 2, LightBatch: 4, HeavyBatch: 2}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	loop.Apply(cancelled, flip)
	if len(logs) != 1 || !strings.Contains(logs[0], "2 of 2 configure RPCs failed") ||
		!strings.HasSuffix(logs[0], "the next apply re-sends the LB policy and workers [1]") {
		t.Fatalf("cancelled send not logged as failed: %q", logs)
	}
	if want := (ConfigureWorkerRequest{Role: "light", Batch: 4}); ws[1].held != want {
		t.Fatalf("worker 1 holds %+v after a cancelled send, want its old %+v", ws[1].held, want)
	}
	if cfg, _ := lb.last(); cfg.Threshold != 0 {
		t.Fatalf("LB holds %+v after a cancelled send, want its old threshold 0", cfg)
	}
	loop.Apply(ctx, flip)
	if want := (ConfigureWorkerRequest{Role: "heavy", Batch: 2}); ws[1].held != want {
		t.Fatalf("worker 1 holds %+v after the re-send, want %+v", ws[1].held, want)
	}
	if cfg, pushes := lb.last(); cfg.Threshold != flip.Threshold || pushes != 2 {
		t.Fatalf("LB holds %+v after %d pushes, want threshold %v after 2", cfg, pushes, flip.Threshold)
	}
	if got, want := workerCalls(ws), []int{1, 3, 1}; !slices.Equal(got, want) {
		t.Errorf("configure calls per worker %v, want %v", got, want)
	}
	if len(logs) != 1 {
		t.Errorf("healed apply still reports errors: %q", logs)
	}
}
