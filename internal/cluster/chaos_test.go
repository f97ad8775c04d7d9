package cluster

import (
	"context"
	"testing"
	"time"

	"diffserve/internal/loadbalancer"
)

// TestChaosWorkerChurnNoLostQueries is the fault-tolerance soak: a
// full pull-lease cluster (real WorkerServers executing the simulated
// models) runs a trace while a chaos driver kills three busy workers,
// severs two worker conns mid-trace, and a FaultTransport injects
// random request drops, response drops, and latency spikes on every
// data-path call. A deterministic zombie — a puller that takes a
// batch and abandons it, then reports it long after the lease sweep
// reclaimed it — exercises the reclaim and late-completion paths
// end to end.
//
// The invariant is exactly-once resolution, accounted server-side
// (injected response drops make any client-side count lossy): every
// submitted query ends Completed or deliberately Dropped, the two sum
// to exactly the number submitted, and the result stream carries each
// ID exactly once. The verify script's race-chaos leg runs this test
// under -race.
func TestChaosWorkerChurnNoLostQueries(t *testing.T) {
	const (
		batches   = 40
		batchSize = 10
		total     = batches * batchSize
		leaseDur  = 10.0 // trace seconds
		nLight    = 4
		nHeavy    = 2
		threshold = 0.5
	)
	f := newFixtures(t)
	clock := NewClock(1e-3)
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 1e9,
		LightMinExec: 0.1, HeavyMinExec: 1.78,
		Clock: clock, Seed: 7,
		LeaseDuration: leaseDur, LeaseRedeliveries: 6,
	})
	lb.Configure(ConfigureLBRequest{Threshold: threshold})

	// Two fault layers over the same server. The client layer injects
	// request drops and latency only: a SubmitBatch whose RESPONSE is
	// dropped would be retried after the server admitted it, and a
	// duplicate admission that lands after the first copy resolved is
	// a second registration — at-least-once submit is the documented
	// client contract (see retryLBConn), but this test pins
	// exactly-once accounting, so the submit path only suffers faults
	// a retry can heal losslessly. The worker layer additionally drops
	// responses: a lost Pull reply strands a lease for the sweep to
	// reclaim, and a lost Complete reply makes the worker re-report a
	// batch the server already resolved — the duplicate-delivery
	// idempotency under test.
	ftClient := NewFaultTransport(localTransport{}, FaultPlan{
		Seed: 11, Clock: clock,
		DropRequestProb: 0.05, LatencyProb: 0.05, LatencySecs: 0.2,
	})
	defer ftClient.Close()
	ftWorker := NewFaultTransport(localTransport{}, FaultPlan{
		Seed: 13, Clock: clock,
		DropRequestProb: 0.03, DropResponseProb: 0.05,
		LatencyProb: 0.05, LatencySecs: 0.2,
	})
	defer ftWorker.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	pol := func(seed uint64) RetryPolicy {
		return RetryPolicy{Attempts: 5, Base: 200 * time.Microsecond, Cap: 2 * time.Millisecond, Seed: seed}
	}
	workerConn := func(seed uint64) LBConn {
		inner, err := ftWorker.ServeLB(lb)
		if err != nil {
			t.Fatal(err)
		}
		return NewRetryingLBConn(inner, pol(seed))
	}

	type liveWorker struct {
		ws     *WorkerServer
		cancel context.CancelFunc
		done   chan struct{}
	}
	startWorker := func(id int, role string) *liveWorker {
		ws := NewWorkerServer(WorkerConfig{
			ID: id, LB: workerConn(uint64(id)),
			Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
			Clock: clock, DisableLoadDelay: true,
			RedialAfter: 2, CompleteRetries: 5,
			Redial: func(epoch int) LBConn { return workerConn(uint64(id) + 100) },
		})
		ws.Configure(ConfigureWorkerRequest{Role: role, Batch: 4})
		wctx, wcancel := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() { defer close(done); ws.Loop(wctx) }()
		return &liveWorker{ws: ws, cancel: wcancel, done: done}
	}

	workers := map[int]*liveWorker{}
	roleOf := func(id int) string {
		if id%(nLight+nHeavy) < nLight {
			return "light"
		}
		return "heavy"
	}
	for id := 0; id < nLight+nHeavy; id++ {
		workers[id] = startWorker(id, roleOf(id))
	}

	// Submitter: paced batches through the retrying faulted client
	// conn, so admission itself survives injected request drops.
	subConnRaw, err := ftClient.ServeLB(lb)
	if err != nil {
		t.Fatal(err)
	}
	subConn := NewRetryingLBConn(subConnRaw, pol(21))
	submitDone := make(chan struct{})
	go func() {
		defer close(submitDone)
		for b := 0; b < batches && ctx.Err() == nil; b++ {
			qs := make([]QueryMsg, batchSize)
			for i := range qs {
				qs[i] = QueryMsg{ID: b*batchSize + i}
			}
			if err := subConn.SubmitBatch(ctx, SubmitRequest{Queries: qs}); err != nil {
				t.Errorf("submit batch %d: %v", b, err)
				return
			}
			clock.WaitUntil(ctx, clock.Now()+0.3, nil)
		}
	}()

	// Result poller: single destructive reader on the client fault
	// layer (request drops retry losslessly; responses are never
	// dropped on this layer, so nothing popped here can vanish).
	pollConnRaw, err := ftClient.ServeLB(lb)
	if err != nil {
		t.Fatal(err)
	}
	pollConn := NewRetryingLBConn(pollConnRaw, pol(22))
	seen := make(map[int]int, total)
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for len(seen) < total && ctx.Err() == nil {
			resp, err := pollResults(ctx, pollConn, ResultsRequest{Max: 64, Wait: 5})
			if err != nil {
				continue
			}
			for _, r := range resp.Results {
				seen[r.ID]++
			}
		}
	}()

	// Zombie: pull a light batch directly, abandon it past the lease's
	// hard deadline so the sweep reclaims it, then report it anyway.
	// The late completion must be a no-op whoever won the race.
	zombie := NewLocalLBConn(lb)
	var zombiePull PullResponse
	for len(zombiePull.Queries) == 0 && ctx.Err() == nil {
		zombiePull, _ = pull(ctx, zombie, PullRequest{WorkerID: 99, Role: "light", Max: 4, Wait: 5})
	}
	if zombiePull.LeaseDeadline <= 0 {
		t.Fatalf("pull response carries no lease deadline: %+v", zombiePull)
	}

	// Chaos: kill three workers while they hold leased batches, and
	// sever two of the survivors' conns for a window long enough to
	// exhaust their retries and force a redial.
	killBusy := func(id int) {
		w := workers[id]
		deadline := time.Now().Add(5 * time.Second)
		for !w.ws.Stats().Busy && time.Now().Before(deadline) && ctx.Err() == nil {
			time.Sleep(100 * time.Microsecond)
		}
		w.cancel()
		<-w.done
		delete(workers, id)
	}
	killBusy(0)
	killBusy(1)
	killBusy(nLight) // one heavy worker too
	now := clock.Now()
	ftWorker.Partition(2, now, now+40, FaultSever)
	ftWorker.Partition(3, now, now+40, FaultSever)
	// Replacements keep the cluster live (fresh IDs, fresh conns).
	for _, id := range []int{6, 7, 10} {
		workers[id] = startWorker(id, roleOf(id))
	}

	// The zombie's abandoned lease expires hard at grant + 4x the
	// duration; live workers' pulls run the sweep past that point.
	clock.WaitUntil(ctx, clock.Now()+5*leaseDur, nil)
	zreq := CompleteRequest{WorkerID: 99, Role: "light", LeaseDeadline: zombiePull.LeaseDeadline}
	for _, q := range zombiePull.Queries {
		zreq.Items = append(zreq.Items, CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: "light", Confidence: 0.9})
	}
	if err := zombie.Complete(ctx, zreq); err != nil {
		t.Fatalf("zombie complete: %v", err)
	}

	// Wait for full resolution. Stats polling doubles as the sweep of
	// last resort, so a tail where every worker is between pulls still
	// makes progress.
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := lb.Stats()
		if st.Completed+st.Dropped >= total {
			break
		}
		time.Sleep(time.Millisecond)
	}

	st := lb.Stats()
	if st.Completed+st.Dropped != total {
		t.Fatalf("resolved %d completed + %d dropped of %d submitted (lost or double-resolved)",
			st.Completed, st.Dropped, total)
	}
	if st.Reclaims == 0 {
		t.Errorf("lease sweep never reclaimed (zombie batch of %d abandoned)", len(zombiePull.Queries))
	}
	if st.InFlight != 0 {
		t.Errorf("%d leases still in flight after full resolution", st.InFlight)
	}

	<-submitDone
	select {
	case <-pollDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("result stream wedged: saw %d of %d IDs", len(seen), total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("query %d surfaced %d times in the result stream", id, n)
		}
	}
	if len(seen) != total {
		t.Errorf("result stream carried %d of %d IDs", len(seen), total)
	}
	cancel()
	for _, w := range workers {
		<-w.done
	}
	t.Logf("chaos soak: %d queries, %d reclaims, %d shed, %d late completions",
		total, st.Reclaims, st.ShedRedelivery, st.LateCompletions)
}
