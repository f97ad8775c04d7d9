package cluster

import (
	"context"
	"sync"

	"diffserve/internal/imagespace"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/metrics"
	"diffserve/internal/queueing"
	"diffserve/internal/stats"
)

// LBConfig parameterizes the load-balancer server.
type LBConfig struct {
	// Mode selects the routing policy.
	Mode loadbalancer.Mode
	// SLO is the latency deadline in trace seconds.
	SLO float64
	// LightMinExec and HeavyMinExec are the batch-1 execution times
	// used for predicted-deadline-miss shedding.
	LightMinExec, HeavyMinExec float64
	// Clock provides trace time.
	Clock *Clock
	// Seed drives random-split routing.
	Seed uint64
	// CoalesceWait is ignored. A pull hands out whatever is queued, up
	// to its Max, as the simulator's dispatcher does; no pull waits for
	// a batch to fill. The field stays only because existing callers
	// still set it.
	CoalesceWait float64 //diffvet:allow deadcode — benchmark/dataplane.go still sets it; it goes with that setter in the benchmark's own cleanup (ROADMAP item 12)
	// RNGStream names the routing RNG stream derived from Seed (empty
	// defaults to "lb"). The sharded LB tier gives shard i the stream
	// "lb/<i>" so shards draw independent random-split decisions while
	// staying deterministic for a given (Seed, shard) pair.
	RNGStream string
	// LeaseDuration is how long (trace seconds) a pulled query stays
	// owned by its worker without further pull/complete activity from
	// that worker. Past the deadline the expiry sweep reclaims the
	// query and re-queues it into the pool it was pulled from, arrival
	// stamp intact. Zero defaults to 4x the SLO — generous enough that
	// a healthy worker never forfeits a batch mid-execution.
	LeaseDuration float64
	// LeaseRedeliveries bounds how many times an unlucky query is
	// reclaimed and re-queued before the server sheds it to a drop
	// instead (a query that kills every worker it lands on must not
	// cycle forever). Zero defaults to 3.
	LeaseRedeliveries int
}

// lbLease is one pulled, uncompleted query's ownership record.
type lbLease struct {
	arrival float64
	// deadline is the lease granted at pull time; hard caps how far
	// worker heartbeats can push it. The cap is what reclaims a query
	// whose pull response was lost in transit: the worker never saw the
	// batch, but its later pulls keep heartbeating, so without the cap
	// the orphaned lease would extend forever.
	deadline, hard float64
	worker         int
	pool           loadbalancer.PoolID
	red            int // times already reclaimed and re-queued
}

// lbPool is one pool's share of the data path: its policy core (the
// FIFO with its shed and dequeue rules), its long-poll wakeup channel,
// and the lock that guards both. Sharding the state per pool keeps
// light pulls, heavy pulls, and submissions to different pools off each
// other's locks; the pool locks are leaves — no other LBServer lock is
// ever taken while one is held.
type lbPool struct {
	mu sync.Mutex
	loadbalancer.Pool
	wake notifier
	// draining is set by DrainRemaining under mu: once the end-of-run
	// sweep has emptied the queue, late pushes (a deferral or submit
	// racing the drain) are refused so the caller drops them instead
	// of stranding them in a queue nobody will pull again.
	draining bool
}

// push enqueues items and wakes blocked pulls. It reports false —
// enqueueing nothing — once the pool has been drained for shutdown.
func (p *lbPool) push(now float64, items ...queueing.Item) bool {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		return false
	}
	for _, it := range items {
		p.Push(now, it)
	}
	p.wake.wake()
	p.mu.Unlock()
	return true
}

// LBServer is the data-path entry point: it queues queries per pool,
// hands batches to pulling workers (blocking long polls when asked),
// applies the cascade threshold to completed light generations, and
// buffers results for polling clients. The policy those steps follow —
// where an arrival goes, what is shed, when a batch is dispatchable,
// what defers, how a resolution is recorded and counted — is
// internal/loadbalancer, the same code the simulator runs; what is
// here is the server around it: locks, wakeups, long polls, the
// exactly-once registration map, leases. Its core methods (SubmitBatchReq,
// PollResultsInto, PullInto, Complete, Configure, Stats) are
// transport-agnostic: ServeLBTCP wraps them in framed-TCP handlers
// and NewLocalLBConn dispatches to them directly.
//
// Locking is sharded so the hot paths do not contend on one mutex:
// each pool queue has its own lock (light pulls never wait on heavy
// pulls or on submissions routed to the other pool), the
// client-result state (async results, tally, counters) is
// guarded by resMu, and the random-split routing state by splitMu.
type LBServer struct {
	cfg LBConfig

	// pools is indexed by loadbalancer.PoolID (PoolLight, PoolHeavy).
	pools [2]lbPool

	// splitMu guards the random-split routing state (Proteus mode).
	splitMu   sync.Mutex
	splitProb float64
	rng       *stats.RNG

	// resMu guards everything on the client-result side: async-result
	// buffering, the resolution ledger (its tally and the control-plane
	// counters), and the cascade threshold.
	resMu     sync.Mutex
	threshold float64
	async     map[int]struct{} // submitted queries awaiting results
	// results holds finished async results not yet fetched. Each
	// element owns its Features buffer and keeps it when the element is
	// reused, so the LB holds as many buffers as results were ever
	// pending at once, however many it has resolved.
	results []QueryResponse
	ledger  loadbalancer.Ledger
	tally   metrics.Tally // the ledger's recorder
	// Result long-poll wakeup. resultsDirty batches the wakeup: a
	// whole Complete batch signals once, not once per query.
	wakeResults  notifier
	resultsDirty bool

	// leaseMu guards the pull-lease table. It is a leaf like the pool
	// locks: it is never held while acquiring another LBServer lock,
	// so it may be taken freely from any path (including under resMu).
	leaseMu    sync.Mutex
	leases     map[int]lbLease // query ID -> in-flight lease
	workerSeen map[int]float64 // worker ID -> last pull/complete time
	nextSweep  float64
	// lifetime failure-model counters, surfaced through Stats
	reclaims        int
	shedRedelivery  int
	lateCompletions int
}

// NewLBServer constructs a load balancer.
func NewLBServer(cfg LBConfig) *LBServer {
	stream := cfg.RNGStream
	if stream == "" {
		stream = "lb"
	}
	if cfg.LeaseDuration <= 0 {
		cfg.LeaseDuration = 4 * cfg.SLO
	}
	if cfg.LeaseRedeliveries <= 0 {
		cfg.LeaseRedeliveries = 3
	}
	s := &LBServer{
		cfg:        cfg,
		rng:        stats.NewRNG(cfg.Seed).Stream(stream),
		async:      make(map[int]struct{}),
		leases:     make(map[int]lbLease),
		workerSeen: make(map[int]float64),
	}
	s.ledger = loadbalancer.Ledger{SLO: cfg.SLO, Col: &s.tally}
	s.pools[loadbalancer.PoolLight].Pool = *loadbalancer.NewPool(cfg.LightMinExec, cfg.SLO)
	s.pools[loadbalancer.PoolHeavy].Pool = *loadbalancer.NewPool(cfg.HeavyMinExec, cfg.SLO)
	return s
}

// Collector exposes the LB's resolution tally (read after the run): how
// many queries it resolved and the moments of the served features. The
// LB keeps no per-query record; a client records the results it polls.
func (s *LBServer) Collector() *metrics.Tally { return &s.tally }

// poolOf resolves a wire role to its pool: "heavy" is the heavy pool,
// anything else the light one.
func poolOf(name string) loadbalancer.PoolID {
	if name == "heavy" {
		return loadbalancer.PoolHeavy
	}
	return loadbalancer.PoolLight
}

// routePool picks the pool an arrival joins: loadbalancer.Decide, with
// the split state locked only in the one mode that uses it.
func (s *LBServer) routePool() loadbalancer.PoolID {
	if s.cfg.Mode != loadbalancer.ModeRandomSplit {
		return loadbalancer.Decide(s.cfg.Mode, 0, nil)
	}
	s.splitMu.Lock()
	defer s.splitMu.Unlock()
	return loadbalancer.Decide(s.cfg.Mode, s.splitProb, s.rng)
}

// notifier is a coalescing broadcast wakeup for goroutines that
// re-check shared state under a lock before sleeping. Every method
// must be called with the lock guarding the shared state held; that
// single rule closes the classic missed-wakeup window structurally —
// a push cannot slip between "state looks empty" and "channel
// captured" because both happen inside one critical section, and the
// matching wake runs under the same lock.
//
// Wakes with no armed waiter coalesce into nothing: the previous
// close-and-replace signal() allocated a fresh channel on every push
// even when no puller was parked, and (worse) made the no-missed-
// wakeup guarantee depend on each call site remembering to capture
// the channel before unlocking. Here arming is the capture.
type notifier struct {
	armed bool
	ch    chan struct{}
}

// wait arms the notifier and returns the channel to block on after
// the caller releases the lock. One wake resolves every armed waiter;
// wakers re-check state and call wait again before sleeping anew.
func (n *notifier) wait() <-chan struct{} {
	if n.ch == nil {
		n.ch = make(chan struct{})
	}
	n.armed = true
	return n.ch
}

// wake unblocks every waiter armed since the previous wake. When no
// waiter is armed it is a no-op (nothing can be selecting on n.ch),
// so back-to-back pushes with no parked puller cost nothing.
func (n *notifier) wake() {
	if !n.armed {
		return
	}
	close(n.ch)
	n.ch = make(chan struct{})
	n.armed = false
}

// SubmitBatchReq admits a batch of queries asynchronously — the
// transport handlers' entry point. Each query is routed by the
// configured policy, counted as an arrival, and will eventually surface
// exactly one result (completion or drop) via PollResultsInto.
func (s *LBServer) SubmitBatchReq(req SubmitRequest) {
	qs := req.Queries
	if len(qs) == 0 {
		return
	}
	now := s.cfg.Clock.Now()
	item := func(q QueryMsg) queueing.Item {
		if q.Arrival == 0 {
			q.Arrival = now
		}
		return queueing.Item{ID: q.ID, Arrival: q.Arrival}
	}
	s.resMu.Lock()
	for _, q := range qs {
		s.async[q.ID] = struct{}{}
	}
	s.ledger.Arrive(len(qs))
	s.resMu.Unlock()

	if s.cfg.Mode != loadbalancer.ModeRandomSplit {
		// Single-destination admissions (every policy but random
		// split): push the whole batch under one pool lock with no
		// per-query routing state or allocation.
		p := &s.pools[s.routePool()]
		p.mu.Lock()
		if p.draining {
			p.mu.Unlock()
			items := make([]queueing.Item, len(qs))
			for i, q := range qs {
				items[i] = item(q)
			}
			s.drop(items)
			return
		}
		for _, q := range qs {
			p.Push(now, item(q))
		}
		p.wake.wake()
		p.mu.Unlock()
		return
	}
	for _, q := range qs {
		if it := item(q); !s.pools[s.routePool()].push(now, it) {
			s.drop([]queueing.Item{it})
		}
	}
}

// PollResultsInto returns finished async results, blocking up to
// req.Wait trace-seconds for at least one to arrive. req.Wait <= 0 is
// an explicit non-blocking poll: one buffer check, never a sleep —
// identical across both transports (the conformance suite pins it).
// Results are copied into resp.Results' existing capacity, each one's
// Features into that element's own buffer, so a caller that polls in a
// loop with one persistent response struct allocates nothing in steady
// state. resp is overwritten entirely; as with the tcp decoder, the
// caller owns the results until its next poll with the same struct.
func (s *LBServer) PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) {
	max := req.Max
	if max <= 0 {
		max = 256
	}
	if req.Wait <= 0 {
		s.resMu.Lock()
		s.takeResultsInto(max, resp)
		s.resMu.Unlock()
		return
	}
	deadline := s.cfg.Clock.Now() + req.Wait
	for {
		s.resMu.Lock()
		s.takeResultsInto(max, resp)
		var wake <-chan struct{}
		if len(resp.Results) == 0 {
			wake = s.wakeResults.wait()
		}
		s.resMu.Unlock()
		if len(resp.Results) > 0 || s.cfg.Clock.Now() >= deadline ||
			!s.cfg.Clock.WaitUntil(ctx, deadline, wake) {
			return
		}
	}
}

// takeResultsInto pops up to max buffered async results into
// resp.Results as copies, reusing its capacity and its elements'
// Features buffers. An empty take keeps the caller's buffer (length
// zero) so the next non-empty poll is still allocation-free. Callers
// must hold resMu.
func (s *LBServer) takeResultsInto(max int, resp *ResultsResponse) {
	n := min(len(s.results), max)
	resp.Results = resp.Results[:0]
	for i := range s.results[:n] {
		resp.Results = appendResult(resp.Results, &s.results[i])
	}
	s.results = dropFront(s.results, n)
}

// growResults returns rs one element longer. The new element is the one
// past rs's end when the capacity has room, still holding the Features
// buffer an earlier use left it; the caller overwrites every field.
func growResults(rs []QueryResponse) []QueryResponse {
	if len(rs) < cap(rs) {
		return rs[:len(rs)+1]
	}
	return append(rs, QueryResponse{})
}

// appendResult appends a copy of src to dst, its features copied into
// the new element's own buffer. Empty features are delivered as nil,
// as the wire decodes them.
func appendResult(dst []QueryResponse, src *QueryResponse) []QueryResponse {
	dst = growResults(dst)
	d := &dst[len(dst)-1]
	buf := d.Features
	*d = *src
	d.Features = nil
	if len(src.Features) > 0 {
		d.Features = append(buf[:0], src.Features...)
	}
	return dst
}

// dropFront removes the first n of rs by swapping the rest down, so
// every element, the ones now past the end included, keeps a Features
// buffer of its own. A copying shift (append(rs[:0], rs[n:]...)) would
// leave an element past the end sharing its buffer with a live one,
// which the next growResults would then overwrite.
func dropFront(rs []QueryResponse, n int) []QueryResponse {
	rest := len(rs) - n
	for i := 0; i < rest; i++ {
		rs[i], rs[n+i] = rs[n+i], rs[i]
	}
	return rs[:rest]
}

// PullInto hands up to req.Max queued queries to a worker, shedding
// queries that can no longer meet their deadline. With req.Wait > 0
// it long-polls: the call blocks until anything is queued or the wait
// expires. req.Wait <= 0 is an explicit non-blocking poll: one
// dequeue attempt, never a sleep — identical across both transports
// (the conformance suite pins it). Pulls only touch their own pool's lock, so light and heavy dispatch
// proceed concurrently. The batch is written into resp.Queries'
// existing capacity, so a worker that pulls in a loop with one
// persistent response struct allocates nothing in steady state. resp
// is overwritten entirely (an empty pull leaves Queries nil, matching
// the wire codec's nil-vs-empty normalization).
func (s *LBServer) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) {
	resp.LeaseDeadline, resp.QueuedAt = 0, 0
	// Keep the caller's query buffer for reuse; empty returns hand back
	// nil (wire parity) without dropping the capacity they carried in.
	qbuf := resp.Queries[:0]
	resp.Queries = nil
	pool := poolOf(req.Role)
	p := &s.pools[pool]
	deadline := s.cfg.Clock.Now() + req.Wait
	scratch := getItemScratch()
	defer putItemScratch(scratch)
	for {
		now := s.cfg.Clock.Now()
		// Heartbeat first, sweep if due: a reclaimed query re-queued by
		// the sweep is pullable by this very call.
		s.leaseTouch(req.WorkerID, now)
		p.mu.Lock()
		shed, items := p.Dequeue(now, req.Max, (*scratch)[:0])
		var wake <-chan struct{}
		if len(items) == 0 && req.Wait > 0 {
			// Arm the wakeup inside the same critical section as the
			// failed dequeue, so a push cannot race the sleep.
			wake = p.wake.wait()
		}
		p.mu.Unlock()
		if items != nil {
			*scratch = items[:0]
		}

		s.drop(shed)
		if len(items) > 0 {
			if items = s.leaseBatch(req.WorkerID, pool, items, now); len(items) == 0 {
				continue // every item had resolved while queued: dequeue again
			}
			for _, it := range items {
				qbuf = append(qbuf, QueryMsg{ID: it.ID, Arrival: it.Arrival})
				resp.QueuedAt = max(resp.QueuedAt, it.Enqueue, it.Arrival)
			}
			resp.Queries = qbuf
			resp.LeaseDeadline = now + s.cfg.LeaseDuration
			return
		}
		if req.Wait <= 0 || now >= deadline {
			resp.Queries = nil
			return
		}
		// Sleep until new work arrives or the long poll expires.
		if !s.cfg.Clock.WaitUntil(ctx, deadline, wake) {
			return
		}
	}
}

// Complete receives a finished batch: light-pool results are
// thresholded (serve or defer); heavy-pool results always serve.
func (s *LBServer) Complete(req CompleteRequest) {
	now := s.cfg.Clock.Now()
	pool := poolOf(req.Role)

	var deferred []queueing.Item
	s.resMu.Lock()
	s.clearLeasesLocked(&req)
	for _, item := range req.Items {
		// Only live queries resolve or defer: the first resolution is
		// final, and a completion can reach a shard that never held this
		// query — a zombie's late report, or a frontend routing an
		// untracked ID to its owner — which must not enqueue a phantom
		// copy in its heavy pool.
		if !s.liveLocked(item.ID) {
			continue
		}
		if loadbalancer.Defers(s.cfg.Mode, pool, item.Confidence, s.threshold) {
			deferred = append(deferred, queueing.Item{ID: item.ID, Arrival: item.Arrival})
			continue
		}
		s.completeLocked(item, now, pool)
	}
	s.flushResultsLocked()
	s.resMu.Unlock()
	s.leaseTouch(req.WorkerID, now)

	if len(deferred) > 0 && !s.pools[loadbalancer.PoolHeavy].push(now, deferred...) {
		// The end-of-run drain already swept the heavy queue: these
		// deferrals arrived too late to ever be pulled, so they
		// resolve as drops instead of stranding their clients.
		s.drop(deferred)
	}
}

// drop resolves queries as drops: shed by a pool, refused by a drained
// one, or out of redeliveries. A query already resolved by a racing
// complete or an earlier sweep is left alone. A reclaimed copy deferred
// by a late completion sits in both pools, so a drop releases leases.
func (s *LBServer) drop(items []queueing.Item) {
	if len(items) == 0 {
		return
	}
	s.resMu.Lock()
	s.leaseMu.Lock()
	for _, it := range items {
		if s.liveLocked(it.ID) {
			s.ledger.Drop(it)
			s.resolveLocked(QueryResponse{ID: it.ID, Dropped: true, Arrival: it.Arrival})
			delete(s.leases, it.ID)
		}
	}
	s.leaseMu.Unlock()
	s.flushResultsLocked()
	s.resMu.Unlock()
}

// leaseHardFactor caps how far heartbeats can extend a lease past its
// grant: effective deadline <= grant + leaseHardFactor*LeaseDuration.
// The cap is what reclaims a batch whose pull response was lost in
// transit — the worker never received it, but its later pulls keep
// heartbeating, so without the cap the orphaned lease would live
// forever.
const leaseHardFactor = 4

// leaseTouch records worker activity (the lease heartbeat) and runs
// the expiry sweep when its interval has elapsed. It is called on
// every pull attempt and every completion, so in any cluster with at
// least one live worker, dead workers' leases are reclaimed within a
// sweep interval.
func (s *LBServer) leaseTouch(workerID int, now float64) {
	s.leaseMu.Lock()
	s.workerSeen[workerID] = now
	requeue, shed := s.collectExpiredLocked(now)
	s.leaseMu.Unlock()
	s.settleExpired(requeue, shed, now)
}

// sweepLeases runs the expiry sweep without attributing a heartbeat
// (the Stats path: the controller's poll must reclaim a fully dead
// worker set even when no worker is pulling).
func (s *LBServer) sweepLeases(now float64) {
	s.leaseMu.Lock()
	requeue, shed := s.collectExpiredLocked(now)
	s.leaseMu.Unlock()
	s.settleExpired(requeue, shed, now)
}

// leaseBatch leases the pulled items whose queries are still live to
// the worker and returns them; a reclaimed copy whose query a late
// completion resolved is not dispatched again. Resolutions release
// leases under resMu too, so no lease outlives its query. A reclaimed
// item's Item.Payload carries its redelivery count through the queue.
func (s *LBServer) leaseBatch(workerID int, pool loadbalancer.PoolID, items []queueing.Item, now float64) []queueing.Item {
	dur := s.cfg.LeaseDuration
	live := items[:0]
	s.resMu.Lock()
	s.leaseMu.Lock()
	for _, it := range items {
		if !s.liveLocked(it.ID) {
			continue
		}
		live = append(live, it)
		red := 0
		if v, ok := it.Payload.(int); ok {
			red = v
		}
		s.leases[it.ID] = lbLease{
			arrival: it.Arrival, deadline: now + dur, hard: now + leaseHardFactor*dur,
			worker: workerID, pool: pool, red: red,
		}
	}
	s.leaseMu.Unlock()
	s.resMu.Unlock()
	return live
}

// clearLeasesLocked releases the leases of a completed batch and
// counts zombie reports: items whose lease was already reclaimed — or
// resolved by someone else — before this completion arrived. Only
// lease-aware reports (a nonzero echoed deadline) are counted, so
// pre-lease clients do not inflate the counter. The lease is released
// regardless of which worker holds it: the query resolves (or
// re-queues as a deferral) in the caller's resMu section, so any copy
// still leased elsewhere is moot. Callers must hold resMu.
func (s *LBServer) clearLeasesLocked(req *CompleteRequest) {
	s.leaseMu.Lock()
	for i := range req.Items {
		if _, ok := s.leases[req.Items[i].ID]; ok {
			delete(s.leases, req.Items[i].ID)
		} else if req.LeaseDeadline > 0 {
			s.lateCompletions++
		}
	}
	s.leaseMu.Unlock()
}

// collectExpiredLocked removes every lease past its effective
// deadline, splitting the expirations into per-pool re-queue lists
// and a shed list (queries that exhausted their redelivery bound).
// It self-throttles to one scan per quarter lease duration. Callers
// must hold leaseMu.
func (s *LBServer) collectExpiredLocked(now float64) (requeue [2][]queueing.Item, shed []queueing.Item) {
	if now < s.nextSweep {
		return requeue, nil
	}
	dur := s.cfg.LeaseDuration
	s.nextSweep = now + dur/4
	for id, l := range s.leases {
		eff := l.deadline
		if seen, ok := s.workerSeen[l.worker]; ok && seen+dur > eff {
			eff = seen + dur
		}
		if eff > l.hard {
			eff = l.hard
		}
		if now <= eff {
			continue
		}
		delete(s.leases, id)
		it := queueing.Item{ID: id, Arrival: l.arrival, Payload: l.red + 1}
		if l.red+1 > s.cfg.LeaseRedeliveries {
			shed = append(shed, it)
			s.shedRedelivery++
		} else {
			requeue[l.pool] = append(requeue[l.pool], it)
			s.reclaims++
		}
	}
	return requeue, shed
}

// settleExpired disposes of a sweep's harvest: redelivery-exhausted
// queries resolve as drops, the rest re-queue into the pool they were
// pulled from: the arrival stamp rides along untouched, nothing is
// re-counted as an arrival, and — because a reclaim never crosses
// servers — the async registration is still in place, so no
// re-registration happens at all. A query whose registration is
// already gone (resolved by a zombie completion) is skipped rather than
// re-executed for nobody; a pool already draining for shutdown refuses
// the push and the queries resolve as drops like any late arrival.
func (s *LBServer) settleExpired(requeue [2][]queueing.Item, shed []queueing.Item, now float64) {
	s.drop(shed)
	for dest, items := range requeue {
		if len(items) == 0 {
			continue
		}
		live := items[:0]
		s.resMu.Lock()
		for _, it := range items {
			if s.liveLocked(it.ID) {
				live = append(live, it)
			}
		}
		s.resMu.Unlock()
		if len(live) > 0 && !s.pools[dest].push(now, live...) {
			s.drop(live)
		}
	}
}

// liveLocked reports whether a query still awaits its resolution —
// its async entry exists. Once resolved it does not, so completions
// and drops racing a drain (or arriving twice) become no-ops instead
// of double-counting in the ledger. Callers must hold resMu.
func (s *LBServer) liveLocked(id int) bool {
	_, ok := s.async[id]
	return ok
}

// completeLocked resolves a live query as served and tallies the
// outcome. Callers must hold resMu.
func (s *LBServer) completeLocked(item CompleteItem, now float64, pool loadbalancer.PoolID) {
	rec := s.ledger.Complete(queueing.Item{ID: item.ID, Arrival: item.Arrival}, now, pool, imagespace.Image{
		Variant: item.Variant, Features: item.Features, Artifact: item.Artifact,
	}, item.Confidence)
	s.resolveLocked(QueryResponse{
		ID: rec.ID, Variant: rec.ServedBy, Features: rec.Features,
		Artifact: rec.Artifact, Confidence: rec.Confidence,
		Deferred: rec.Deferred, Arrival: rec.Arrival, Completion: rec.Completion,
	})
}

// resolveLocked delivers a live query's final outcome to the results
// buffer drained by PollResultsInto and ends its registration, so a
// completion or drop racing a drain (or arriving twice) finds it no
// longer live. The features are copied into the pending element's own
// buffer: the caller's slice, a pooled decode buffer over tcp, is free
// again the moment Complete returns. Callers must hold resMu.
func (s *LBServer) resolveLocked(resp QueryResponse) {
	s.results = growResults(s.results)
	r := &s.results[len(s.results)-1]
	resp.Features = append(r.Features[:0], resp.Features...)
	*r = resp
	delete(s.async, resp.ID)
	s.resultsDirty = true
}

// flushResultsLocked wakes result pollers once for however many
// results the caller just resolved. Callers must hold resMu.
func (s *LBServer) flushResultsLocked() {
	if s.resultsDirty {
		s.wakeResults.wake()
		s.resultsDirty = false
	}
}

// Configure updates threshold / split probability.
func (s *LBServer) Configure(req ConfigureLBRequest) {
	s.resMu.Lock()
	s.threshold = req.Threshold
	s.resMu.Unlock()

	s.splitMu.Lock()
	s.splitProb = loadbalancer.ClampProb(req.SplitProb)
	s.splitMu.Unlock()
}

// Stats reports control-plane statistics and resets the per-tick
// counters. Like the simulator's control tick it first sheds what has
// expired in the queues, so a query waiting in a pool no worker pulls
// from still resolves (as a drop) and the queue lengths the allocator
// sees are honest.
func (s *LBServer) Stats() LBStats {
	now := s.cfg.Clock.Now()
	// The stats poll doubles as the sweep of last resort: with every
	// worker dead nothing else ticks the lease table, and it is
	// exactly then that reclamation matters most.
	s.sweepLeases(now)
	var snap [2]queueing.Snapshot
	for i := range s.pools {
		p := &s.pools[i]
		p.mu.Lock()
		shed := p.Shed(now)
		snap[i] = p.Snap(now)
		p.mu.Unlock()
		s.drop(shed)
	}
	light, heavy := snap[loadbalancer.PoolLight], snap[loadbalancer.PoolHeavy]

	s.resMu.Lock()
	out := LBStats{
		Now:              now,
		LightQueueLen:    light.Len,
		HeavyQueueLen:    heavy.Len,
		LightArrivalRate: light.ArrivalRate,
		HeavyArrivalRate: heavy.ArrivalRate,
	}
	out.ArrivalsSinceTick, out.TimeoutsSinceTick = s.ledger.Tick()
	out.Completed, out.Dropped = s.ledger.Counts()
	s.resMu.Unlock()

	s.leaseMu.Lock()
	out.InFlight = len(s.leases)
	out.Reclaims = s.reclaims
	out.ShedRedelivery = s.shedRedelivery
	out.LateCompletions = s.lateCompletions
	s.leaseMu.Unlock()
	return out
}

// DrainRemaining drops every still-queued query (end of run) and
// marks the pools as draining: pushes that lose the race with the
// sweep — a deferral or submission in flight while the drain runs —
// are refused and resolve as drops rather than stranding forever in
// a queue no worker will pull again.
func (s *LBServer) DrainRemaining() {
	now := s.cfg.Clock.Now()
	for i := range s.pools {
		p := &s.pools[i]
		p.mu.Lock()
		items := p.Pop(now, p.Len())
		p.draining = true
		p.mu.Unlock()
		s.drop(items)
	}
}
