package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diffserve/internal/loadbalancer"
)

// TestLBServerPerPoolLockStress hammers every LBServer entry point —
// batched submits, light and heavy pulls, completions that defer
// across pools, result polls, configuration, and stats — from
// concurrent goroutines. It runs in -short mode on purpose: the
// verify script's -race leg executes it, which is what actually
// checks the per-pool lock split for data races. The final accounting
// must balance: every submitted query resolves exactly once.
func TestLBServerPerPoolLockStress(t *testing.T) {
	const (
		submitters = 4
		pullers    = 4
		batches    = 60
		batchSize  = 8
		total      = submitters * batches * batchSize
	)
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 1e9, // nothing sheds
		LightMinExec: 0.01, HeavyMinExec: 0.02,
		Clock: NewClock(1e-5), Seed: 9,
	})
	// Half the light completions fall below the threshold and defer
	// to the heavy pool, so both pools stay busy.
	lb.Configure(ConfigureLBRequest{Threshold: 0.5})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var resolved atomic.Int64
	var wg sync.WaitGroup

	// Result pollers drain the async results until all queries have
	// resolved.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for resolved.Load() < total && ctx.Err() == nil {
				resp, _ := pollResults(ctx, NewLocalLBConn(lb), ResultsRequest{Max: 64, Wait: 50})
				resolved.Add(int64(len(resp.Results)))
			}
		}()
	}

	// Pullers play the worker side for both pools.
	pull := func(role string, confidence float64) {
		defer wg.Done()
		for resolved.Load() < total && ctx.Err() == nil {
			resp, _ := pull(ctx, NewLocalLBConn(lb), PullRequest{Role: role, Max: batchSize, Wait: 100})
			if len(resp.Queries) == 0 {
				continue
			}
			items := make([]CompleteItem, len(resp.Queries))
			for i, q := range resp.Queries {
				// Alternate confidences on the light pool: below the
				// 0.5 threshold defers the query to the heavy pool.
				conf := confidence
				if role == "light" && q.ID%2 == 0 {
					conf = 0.1
				}
				items[i] = CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: role, Confidence: conf}
			}
			lb.Complete(CompleteRequest{Role: role, Items: items})
		}
	}
	for i := 0; i < pullers; i++ {
		wg.Add(2)
		go pull("light", 0.9)
		go pull("heavy", 0.9)
	}

	// Control-plane hammering: stats polls and reconfigurations race
	// the data path. The threshold toggles but always stays above the
	// deferred queries' 0.1 confidence so the heavy pool still serves
	// them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for resolved.Load() < total && ctx.Err() == nil {
			lb.Stats()
			lb.Configure(ConfigureLBRequest{Threshold: 0.5, SplitProb: 0.25})
			time.Sleep(time.Millisecond)
		}
	}()

	// Submitters: batched async admissions.
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			base := s * batches * batchSize
			for b := 0; b < batches; b++ {
				qs := make([]QueryMsg, batchSize)
				for i := range qs {
					qs[i] = QueryMsg{ID: base + b*batchSize + i}
				}
				lb.SubmitBatchReq(SubmitRequest{Queries: qs})
			}
		}(s)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		cancel()
		t.Fatalf("stress run wedged: resolved %d of %d", resolved.Load(), total)
	}

	if got := resolved.Load(); got != total {
		t.Fatalf("resolved %d of %d queries", got, total)
	}
	stats := lb.Stats()
	if stats.Completed+stats.Dropped != total {
		t.Errorf("accounting: completed %d + dropped %d != %d", stats.Completed, stats.Dropped, total)
	}
	if stats.Dropped != 0 {
		t.Errorf("dropped %d queries despite an unbounded SLO", stats.Dropped)
	}
	if lb.Collector().Len() != total {
		t.Errorf("collector recorded %d of %d", lb.Collector().Len(), total)
	}
}

// TestNotifierCoalescing pins the notifier contract: arming under the
// lock always observes a wake that follows it, wakes with no armed
// waiter are no-ops (no channel churn), and one wake releases every
// armed waiter.
func TestNotifierCoalescing(t *testing.T) {
	var mu sync.Mutex
	var n notifier

	mu.Lock()
	ch1 := n.wait()
	ch2 := n.wait()
	mu.Unlock()
	if ch1 != ch2 {
		t.Fatal("consecutive waits without a wake returned different channels")
	}

	mu.Lock()
	n.wake()
	mu.Unlock()
	select {
	case <-ch1:
	default:
		t.Fatal("armed waiter's channel not closed by wake")
	}

	// Unarmed wakes must not replace the channel a future waiter gets.
	mu.Lock()
	n.wake()
	n.wake()
	ch3 := n.wait()
	mu.Unlock()
	select {
	case <-ch3:
		t.Fatal("fresh waiter's channel already closed")
	default:
	}
	mu.Lock()
	n.wake()
	mu.Unlock()
	select {
	case <-ch3:
	default:
		t.Fatal("wake after re-arm did not close the channel")
	}
}

// TestLBPoolWakeupStress is the missed-wakeup hammer: single-item
// pushes race pullers whose long-poll deadline is far beyond the test
// budget, so one dropped wakeup wedges a puller and fails the run.
// Every push is dispatchable at once — a pull never waits for a batch
// to fill — so each one must produce a wakeup that some puller observes.
func TestLBPoolWakeupStress(t *testing.T) {
	const (
		pushers = 4
		pullers = 4
		perPush = 400
		total   = pushers * perPush
	)
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 1e9,
		LightMinExec: 0.01, HeavyMinExec: 0.02,
		Clock: NewClock(1e-5), Seed: 3,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var pulled atomic.Int64
	var pullWG, pushWG sync.WaitGroup

	for i := 0; i < pullers; i++ {
		pullWG.Add(1)
		go func() {
			defer pullWG.Done()
			for pulled.Load() < total && ctx.Err() == nil {
				// 1e7 trace seconds = 100s of wall time at this
				// timescale: no puller may ever need the deadline.
				resp, _ := pull(ctx, NewLocalLBConn(lb), PullRequest{Role: "light", Max: 1, Wait: 1e7})
				if len(resp.Queries) == 0 {
					continue
				}
				items := make([]CompleteItem, len(resp.Queries))
				for j, q := range resp.Queries {
					items[j] = CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: "light", Confidence: 0.9}
				}
				pulled.Add(int64(len(resp.Queries)))
				lb.Complete(CompleteRequest{Role: "light", Items: items})
			}
		}()
	}
	for p := 0; p < pushers; p++ {
		pushWG.Add(1)
		go func(p int) {
			defer pushWG.Done()
			for i := 0; i < perPush; i++ {
				lb.SubmitBatchReq(SubmitRequest{Queries: []QueryMsg{{ID: p*perPush + i}}})
			}
		}(p)
	}
	pushWG.Wait()

	// Every push is in: pullers must observe all of them well before
	// their own 100s long-poll deadline — a dropped wakeup strands the
	// last items in the queue until this deadline fires.
	deadline := time.Now().Add(30 * time.Second)
	for pulled.Load() < total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got := pulled.Load()
	// Unblock the pullers still parked on an empty queue (their
	// sibling consumed the final item and exited the loop).
	cancel()
	pullWG.Wait()
	if got != total {
		t.Fatalf("wakeup dropped: pullers saw %d of %d single-item pushes", got, total)
	}
}

// TestDrainCompleteRaceNoDoubleResolve interleaves DrainRemaining
// sweeps with in-flight completions — including duplicate deliveries
// and post-drain cascade deferrals — and requires every query to
// resolve exactly once: a Complete arriving after the drain resolved
// its query must neither double-record in the collector nor
// resurrect a result entry.
func TestDrainCompleteRaceNoDoubleResolve(t *testing.T) {
	const (
		rounds    = 30
		batchSize = 8
		total     = rounds * batchSize
	)
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 1e9,
		LightMinExec: 0.01, HeavyMinExec: 0.02,
		Clock: NewClock(1e-5), Seed: 5,
	})
	// Half the completions fall below the threshold and defer: after a
	// drain has marked the heavy pool, those deferrals must resolve as
	// drops exactly once.
	lb.Configure(ConfigureLBRequest{Threshold: 0.5})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var resolved atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // merged-result accounting
		defer wg.Done()
		for resolved.Load() < total && ctx.Err() == nil {
			resp, _ := pollResults(ctx, NewLocalLBConn(lb), ResultsRequest{Max: 64, Wait: 50})
			resolved.Add(int64(len(resp.Results)))
		}
	}()

	// Drain storms race the completions below.
	var drains sync.WaitGroup
	drains.Add(1)
	go func() {
		defer drains.Done()
		for resolved.Load() < total && ctx.Err() == nil {
			lb.DrainRemaining()
		}
	}()

	for r := 0; r < rounds; r++ {
		qs := make([]QueryMsg, batchSize)
		for i := range qs {
			qs[i] = QueryMsg{ID: r*batchSize + i}
		}
		lb.SubmitBatchReq(SubmitRequest{Queries: qs})
		// Pull whatever survived the racing drain; everything else
		// already resolved as a drop.
		pulledItems := []CompleteItem{}
		for {
			resp, _ := pull(ctx, NewLocalLBConn(lb), PullRequest{Role: "light", Max: batchSize})
			if len(resp.Queries) == 0 {
				break
			}
			for _, q := range resp.Queries {
				conf := 0.9
				if q.ID%2 == 0 {
					conf = 0.1 // deferral: races the heavy pool's drain state
				}
				pulledItems = append(pulledItems, CompleteItem{
					ID: q.ID, Arrival: q.Arrival, Variant: "light", Confidence: conf,
				})
			}
		}
		// Deliver every completion twice: the second must be a no-op.
		lb.Complete(CompleteRequest{Role: "light", Items: pulledItems})
		lb.Complete(CompleteRequest{Role: "light", Items: pulledItems})
		// Heavy side serves (or the drain already dropped) deferrals.
		for {
			resp, _ := pull(ctx, NewLocalLBConn(lb), PullRequest{Role: "heavy", Max: batchSize})
			if len(resp.Queries) == 0 {
				break
			}
			items := make([]CompleteItem, len(resp.Queries))
			for i, q := range resp.Queries {
				items[i] = CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: "heavy", Confidence: 0.9}
			}
			lb.Complete(CompleteRequest{Role: "heavy", Items: items})
			lb.Complete(CompleteRequest{Role: "heavy", Items: items})
		}
	}
	// Final sweeps resolve anything still parked in a queue.
	lb.DrainRemaining()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatalf("wedged: resolved %d of %d", resolved.Load(), total)
	}
	cancel()
	drains.Wait()

	if got := resolved.Load(); got != total {
		t.Fatalf("resolved %d of %d queries (double or lost resolutions)", got, total)
	}
	stats := lb.Stats()
	if stats.Completed+stats.Dropped != total {
		t.Errorf("counters: completed %d + dropped %d != %d", stats.Completed, stats.Dropped, total)
	}
	if lb.Collector().Len() != total {
		t.Errorf("collector recorded %d of %d (double records?)", lb.Collector().Len(), total)
	}
	seen := map[int]int{}
	for _, rec := range lb.Collector().Records() {
		seen[rec.ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("query %d recorded %d times", id, n)
		}
	}
}
