package cluster

import (
	"context"
	"slices"
	"testing"

	"diffserve/internal/allocator"
	"diffserve/internal/loadbalancer"
)

// diffLoop builds a ControllerLoop over n recording worker conns.
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

// TestControllerConfiguresOnlyChangedWorkers walks one loop through a
// role flip, two batch-only changes and an idle worker gaining a role:
// each apply must send exactly the workers whose (role, batch) request
// changed, and every worker must hold what the plan means it to.
func TestControllerConfiguresOnlyChangedWorkers(t *testing.T) {
	loop, lb, ws := diffLoop(t, newFixtures(t), 4, 0)
	ctx := context.Background()
	req := func(role string, batch int) ConfigureWorkerRequest {
		return ConfigureWorkerRequest{Role: role, Batch: batch}
	}
	steps := []struct {
		name string
		plan allocator.Plan
		sent []int // workers configured by this apply
		held []ConfigureWorkerRequest
	}{
		{"first apply sends everyone",
			allocator.Plan{LightWorkers: 2, HeavyWorkers: 1, LightBatch: 4, HeavyBatch: 2},
			[]int{0, 1, 2, 3},
			[]ConfigureWorkerRequest{req("light", 4), req("light", 4), req("heavy", 2), req("idle", 4)}},
		{"same plan sends no one",
			allocator.Plan{LightWorkers: 2, HeavyWorkers: 1, LightBatch: 4, HeavyBatch: 2},
			nil,
			[]ConfigureWorkerRequest{req("light", 4), req("light", 4), req("heavy", 2), req("idle", 4)}},
		{"role flip: worker 1 light -> heavy",
			allocator.Plan{LightWorkers: 1, HeavyWorkers: 2, LightBatch: 4, HeavyBatch: 2},
			[]int{1},
			[]ConfigureWorkerRequest{req("light", 4), req("heavy", 2), req("heavy", 2), req("idle", 4)}},
		{"heavy batch only: the two heavy workers",
			allocator.Plan{LightWorkers: 1, HeavyWorkers: 2, LightBatch: 4, HeavyBatch: 1},
			[]int{1, 2},
			[]ConfigureWorkerRequest{req("light", 4), req("heavy", 1), req("heavy", 1), req("idle", 4)}},
		{"light batch only: the light worker, and the idle one, whose request carries it",
			allocator.Plan{LightWorkers: 1, HeavyWorkers: 2, LightBatch: 8, HeavyBatch: 1},
			[]int{0, 3},
			[]ConfigureWorkerRequest{req("light", 8), req("heavy", 1), req("heavy", 1), req("idle", 8)}},
		{"idle worker 3 gains a role",
			allocator.Plan{LightWorkers: 2, HeavyWorkers: 2, LightBatch: 8, HeavyBatch: 1},
			[]int{3},
			[]ConfigureWorkerRequest{req("light", 8), req("heavy", 1), req("heavy", 1), req("light", 8)}},
	}
	sent, skipped := 0, 0
	for n, s := range steps {
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
		if _, pushes := lb.last(); pushes != n+1 {
			t.Errorf("%s: LB configured %d times over %d applies, want every apply", s.name, pushes, n+1)
		}
		sent += len(s.sent)
		skipped += len(ws) - len(s.sent)
	}
	st := loop.LoopStats()
	if st.WorkerConfiguresSent != sent || st.WorkerConfiguresSkipped != skipped || st.ConfigureErrors != 0 {
		t.Errorf("stats %+v, want %d sent / %d skipped / 0 errors", st, sent, skipped)
	}
}

// TestControllerHealsAmnesiacWorker covers the one failure an
// acknowledgement cannot see: a worker that loses its state without
// failing an RPC. Nothing tells the loop, so it keeps skipping the
// worker — until the periodic full re-send, which must hand the request
// back within fullResendEvery applies, with no error reported.
func TestControllerHealsAmnesiacWorker(t *testing.T) {
	loop, _, ws := diffLoop(t, newFixtures(t), 2, 0)
	ctx := context.Background()
	plan := allocator.Plan{LightWorkers: 1, HeavyWorkers: 1, LightBatch: 4, HeavyBatch: 2}
	loop.Apply(ctx, plan)
	want := ConfigureWorkerRequest{Role: "heavy", Batch: 2}
	if ws[1].held != want {
		t.Fatalf("worker 1 holds %+v after the first apply, want %+v", ws[1].held, want)
	}
	ws[1].held = ConfigureWorkerRequest{} // restarted behind the same address
	healedAfter := 0
	for k := 1; k <= fullResendEvery && healedAfter == 0; k++ {
		loop.Apply(ctx, plan)
		switch {
		case ws[1].held == want:
			healedAfter = k
		case ws[1].calls != 1:
			t.Fatalf("apply %d sent worker 1 a configure (%d calls) that did not restore it", k, ws[1].calls)
		}
	}
	if healedAfter == 0 {
		t.Fatalf("worker 1 still holds %+v after %d applies", ws[1].held, fullResendEvery)
	}
	t.Logf("healed by the full re-send %d applies after the loss (bound %d)", healedAfter, fullResendEvery)
	if st := loop.LoopStats(); st.ConfigureErrors != 0 || st.LastApplyErrors != 0 {
		t.Errorf("amnesia reported as an error: %+v", st)
	}
	if ws[0].calls != 2 {
		t.Errorf("healthy worker configured %d times, want 2 (first apply and the full re-send)", ws[0].calls)
	}
}

// TestControllerConservativeFailoverDiffed drives a diffing loop and a
// reference loop forced to re-send everything (its acknowledgements
// wiped before every step), both striping over 2 shards, through plan
// changes, a re-apply and the stats-blind conservative failover. After every step each worker must hold under
// diffing exactly what the full send leaves it holding; and the
// failover, which keeps the worker layout and only zeroes the
// threshold, must reach the LB without configuring a single worker.
func TestControllerConservativeFailoverDiffed(t *testing.T) {
	f := newFixtures(t)
	const n = 8
	diffed, diffedLB, diffedWs := diffLoop(t, f, n, 2)
	full, fullLB, fullWs := diffLoop(t, f, n, 2)
	ctx := context.Background()
	both := func(name string, op func(*ControllerLoop)) {
		t.Helper()
		for i := range full.acked {
			full.acked[i] = ConfigureWorkerRequest{}
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
	if st := diffed.LoopStats(); !st.Conservative {
		t.Fatalf("no failover after the miss budget: %+v", st)
	}
	if cfg, _ := diffedLB.last(); cfg.Threshold != 0 {
		t.Errorf("conservative policy did not reach the LB: %+v", cfg)
	}
	for i, w := range diffedWs {
		if w.calls != before[i] {
			t.Errorf("failover configured worker %d although its request did not change", i)
		}
	}
	st, ref := diffed.LoopStats(), full.LoopStats()
	if st.WorkerConfiguresSkipped == 0 || st.WorkerConfiguresSent >= ref.WorkerConfiguresSent {
		t.Errorf("diffing sent %d worker configures (skipped %d), the full send %d", st.WorkerConfiguresSent, st.WorkerConfiguresSkipped, ref.WorkerConfiguresSent)
	}
}

// TestControllerResendsAfterCancelledApply pins that a send the caller's
// context cut short is a failed send: it is counted, the worker is left
// unknown, and the next apply sends it again — while workers the
// cancelled apply did not need to reach are still skipped.
func TestControllerResendsAfterCancelledApply(t *testing.T) {
	loop, _, ws := diffLoop(t, newFixtures(t), 3, 0)
	ctx := context.Background()
	loop.Apply(ctx, allocator.Plan{LightWorkers: 2, HeavyWorkers: 1, LightBatch: 4, HeavyBatch: 2})

	// Worker 1 flips light -> heavy; the apply that says so is cancelled.
	flip := allocator.Plan{LightWorkers: 1, HeavyWorkers: 2, LightBatch: 4, HeavyBatch: 2}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	loop.Apply(cancelled, flip)
	if st := loop.LoopStats(); st.LastApplyErrors != 1 || st.ConfigureErrors != 1 {
		t.Fatalf("cancelled send not counted as failed: %+v", st)
	}
	if want := (ConfigureWorkerRequest{Role: "light", Batch: 4}); ws[1].held != want {
		t.Fatalf("worker 1 holds %+v after a cancelled send, want its old %+v", ws[1].held, want)
	}
	loop.Apply(ctx, flip)
	if want := (ConfigureWorkerRequest{Role: "heavy", Batch: 2}); ws[1].held != want {
		t.Fatalf("worker 1 holds %+v after the re-send, want %+v", ws[1].held, want)
	}
	if got, want := workerCalls(ws), []int{1, 3, 1}; !slices.Equal(got, want) {
		t.Errorf("configure calls per worker %v, want %v", got, want)
	}
	if st := loop.LoopStats(); st.LastApplyErrors != 0 {
		t.Errorf("healed apply still reports errors: %+v", st)
	}
}
