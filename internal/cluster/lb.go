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
	// a batch to fill.
	// benchmark/ only: dataplane.go (dataplane_*); item P deletes it.
	CoalesceWait float64 //diffvet:allow deadcode — benchmark/dataplane.go still sets it; it goes with that setter in the benchmark's own cleanup (ROADMAP item P.2)
	// RNGStream names the routing RNG stream derived from Seed (empty
	// defaults to "lb"). The sharded LB tier gives shard i the stream
	// "lb/<i>" so shards draw independent random-split decisions while
	// staying deterministic for a given (Seed, shard) pair.
	// benchmark/ only: control.go, dataplane.go (control_tick, dataplane_*); item P deletes it.
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

// lbQuery is one unresolved query's record: its arrival, how many
// times it has been reclaimed, and, while a worker holds it, that
// worker's lease. Resolving the query deletes the record, lease and all.
type lbQuery struct {
	arrival float64
	red     int // times already reclaimed and re-queued
	leased  bool
	// deadline is the lease granted at pull time; hard caps how far
	// worker heartbeats can push it. The cap is what reclaims a query
	// whose pull response was lost in transit: the worker never saw the
	// batch, but its later pulls keep heartbeating, so without the cap
	// the orphaned lease would extend forever.
	deadline, hard float64
	worker         int
	pool           loadbalancer.PoolID
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

// push enqueues items and wakes blocked pulls. Each counts as an
// arrival in the pool's rate unless requeue is set: a reclaimed query
// going back to its pool arrived there once already. It reports false —
// enqueueing nothing — once the pool has been drained for shutdown.
func (p *lbPool) push(now float64, requeue bool, items ...queueing.Item) bool {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		return false
	}
	for _, it := range items {
		if requeue {
			p.Requeue(now, it)
		} else {
			p.Push(now, it)
		}
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
// here is the server around it: locks, wakeups, long polls, and one
// table of live queries, each entry holding the query's lease while a
// worker has it, so a query resolves exactly once and no lease
// outlives it. Its core methods (SubmitBatchReq,
// PollResultsInto, PullInto, Complete, Configure, Stats) are
// transport-agnostic: ServeLBTCP wraps them in framed-TCP handlers
// and NewLocalLBConn dispatches to them directly.
//
// Locking is sharded so the hot paths do not contend on one mutex:
// each pool queue has its own lock (light pulls never wait on heavy
// pulls or on submissions routed to the other pool), the live
// queries, their leases and the client-result state (results, tally,
// counters) are guarded by resMu, and the random-split routing state
// by splitMu.
type LBServer struct {
	cfg LBConfig

	// pools is indexed by loadbalancer.PoolID (PoolLight, PoolHeavy).
	pools [2]lbPool

	// splitMu guards the random-split routing state (Proteus mode).
	splitMu   sync.Mutex
	splitProb float64
	rng       *stats.RNG

	// resMu guards the live queries and their leases, result
	// buffering, the resolution ledger (its tally and the control-plane
	// counters), and the cascade threshold.
	resMu     sync.Mutex
	threshold float64
	live      map[int]lbQuery // submitted queries awaiting resolution
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
		live:       make(map[int]lbQuery),
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
// benchmark/ only: dataplane.go (dataplane_*); item P deletes it.
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
		if _, ok := s.live[q.ID]; !ok {
			s.live[q.ID] = lbQuery{arrival: item(q).Arrival}
		}
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
		if it := item(q); !s.pools[s.routePool()].push(now, false, it) {
			s.drop([]queueing.Item{it})
		}
	}
}

// PollResultsInto returns finished async results, blocking up to
// req.Wait trace-seconds for at least one to arrive. req.Wait <= 0 is
// an explicit non-blocking poll: one buffer check, no clock read and
// never a sleep — identical across both transports (the conformance
// suite pins it).
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
	var deadline float64
	if req.Wait > 0 {
		deadline = s.cfg.Clock.Now() + req.Wait
	}
	for {
		s.resMu.Lock()
		s.takeResultsInto(max, resp)
		var wake <-chan struct{}
		if len(resp.Results) == 0 && req.Wait > 0 {
			wake = s.wakeResults.wait()
		}
		s.resMu.Unlock()
		if len(resp.Results) > 0 || req.Wait <= 0 || s.cfg.Clock.Now() >= deadline ||
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
	var deadline float64
	scratch := getItemScratch()
	defer putItemScratch(scratch)
	for first := true; ; first = false {
		now := s.cfg.Clock.Now()
		if first && req.Wait > 0 {
			deadline = now + req.Wait
		}
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
// thresholded (serve or defer); heavy-pool results always serve. The
// deferrals gather in a pooled scratch, as PullInto's dequeue does.
// Each report releases its query's lease, whichever worker holds it:
// the query resolves or re-queues as a deferral here, so any copy
// leased elsewhere is moot. A lease-aware report (a nonzero echoed
// deadline) that finds no lease — reclaimed, or resolved by someone
// else first — counts as late; pre-lease clients do not inflate the
// counter. Only live queries resolve or defer: the first resolution is
// final, and a zombie's late report can name a query already resolved,
// which must not enqueue a phantom copy in the heavy pool.
func (s *LBServer) Complete(req CompleteRequest) {
	now := s.cfg.Clock.Now()
	pool := poolOf(req.Role)

	deferred := getItemScratch()
	defer putItemScratch(deferred)
	s.resMu.Lock()
	for _, item := range req.Items {
		q, ok := s.live[item.ID]
		if !q.leased && req.LeaseDeadline > 0 {
			s.lateCompletions++
		}
		if !ok {
			continue
		}
		if loadbalancer.Defers(s.cfg.Mode, pool, item.Confidence, s.threshold) {
			q.leased = false
			s.live[item.ID] = q
			*deferred = append(*deferred, queueing.Item{ID: item.ID, Arrival: item.Arrival})
			continue
		}
		s.completeLocked(item, now, pool)
	}
	s.flushResultsLocked()
	s.resMu.Unlock()
	s.leaseTouch(req.WorkerID, now)
	s.pushOrDrop(loadbalancer.PoolHeavy, *deferred, now, false)
}

// pushOrDrop re-queues items into pool dest, as lbPool.push does. Once
// the end-of-run drain has swept that pool they arrived too late to
// ever be pulled, so they resolve as drops instead of stranding their
// clients.
func (s *LBServer) pushOrDrop(dest loadbalancer.PoolID, items []queueing.Item, now float64, requeue bool) {
	if len(items) > 0 && !s.pools[dest].push(now, requeue, items...) {
		s.drop(items)
	}
}

// drop resolves queries as drops: shed by a pool or refused by a
// drained one. A query already resolved by a racing complete or an
// earlier drop is left alone.
func (s *LBServer) drop(items []queueing.Item) {
	if len(items) == 0 {
		return
	}
	s.resMu.Lock()
	for _, it := range items {
		if _, ok := s.live[it.ID]; ok {
			s.dropLocked(it)
		}
	}
	s.flushResultsLocked()
	s.resMu.Unlock()
}

// dropLocked resolves a live query as a drop. Callers must hold resMu.
func (s *LBServer) dropLocked(it queueing.Item) {
	s.ledger.Drop(it)
	s.resolveLocked(QueryResponse{ID: it.ID, Dropped: true, Arrival: it.Arrival})
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
	s.resMu.Lock()
	s.workerSeen[workerID] = now
	requeue := s.sweepLocked(now)
	s.resMu.Unlock()
	s.requeue(requeue, now)
}

// requeue pushes a sweep's reclaimed queries back into the pools they
// were pulled from, counting none as an arrival.
func (s *LBServer) requeue(items [2][]queueing.Item, now float64) {
	for dest := range items {
		s.pushOrDrop(loadbalancer.PoolID(dest), items[dest], now, true)
	}
}

// leaseBatch leases the pulled items whose queries are still live to
// the worker and returns them; a reclaimed copy whose query a late
// completion resolved is not dispatched again.
func (s *LBServer) leaseBatch(workerID int, pool loadbalancer.PoolID, items []queueing.Item, now float64) []queueing.Item {
	dur := s.cfg.LeaseDuration
	live := items[:0]
	s.resMu.Lock()
	for _, it := range items {
		q, ok := s.live[it.ID]
		if !ok {
			continue
		}
		live = append(live, it)
		q.leased, q.worker, q.pool = true, workerID, pool
		q.deadline, q.hard = now+dur, now+leaseHardFactor*dur
		s.live[it.ID] = q
	}
	s.resMu.Unlock()
	return live
}

// sweepLocked reclaims every lease past its effective deadline. A
// query out of redeliveries resolves as a drop here; the rest are
// returned per pool for the caller to re-queue once it has released
// resMu — arrival stamp untouched, nothing re-counted as an arrival
// (LBServer.requeue).
// It self-throttles to one scan per quarter lease duration. Callers
// must hold resMu.
func (s *LBServer) sweepLocked(now float64) (requeue [2][]queueing.Item) {
	if now < s.nextSweep {
		return requeue
	}
	dur := s.cfg.LeaseDuration
	s.nextSweep = now + dur/4
	for id, q := range s.live {
		if !q.leased {
			continue
		}
		eff := q.deadline
		if seen, ok := s.workerSeen[q.worker]; ok && seen+dur > eff {
			eff = seen + dur
		}
		if now <= min(eff, q.hard) {
			continue
		}
		it := queueing.Item{ID: id, Arrival: q.arrival}
		if q.red++; q.red > s.cfg.LeaseRedeliveries {
			s.dropLocked(it)
			s.shedRedelivery++
			continue
		}
		q.leased = false
		s.live[id] = q
		requeue[q.pool] = append(requeue[q.pool], it)
		s.reclaims++
	}
	s.flushResultsLocked()
	return requeue
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
// buffer drained by PollResultsInto and deletes its entry, lease and
// all, so a completion or drop racing a drain (or arriving twice) finds
// it no longer live. The features are copied into the pending element's own
// buffer: the caller's slice, a pooled decode buffer over tcp, is free
// again the moment Complete returns. Callers must hold resMu.
func (s *LBServer) resolveLocked(resp QueryResponse) {
	s.results = growResults(s.results)
	r := &s.results[len(s.results)-1]
	resp.Features = append(r.Features[:0], resp.Features...)
	*r = resp
	delete(s.live, resp.ID)
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
// sees are honest. For the same reason it first discards queued copies
// of queries that have resolved: a reclaimed copy whose query a late
// report served, deferred or shed elsewhere.
func (s *LBServer) Stats() LBStats {
	now := s.cfg.Clock.Now()
	// The stats poll doubles as the sweep of last resort: with every
	// worker dead nothing else sweeps the leases, and it is exactly
	// then that reclamation matters most.
	s.resMu.Lock()
	requeue := s.sweepLocked(now)
	s.resMu.Unlock()
	s.requeue(requeue, now)

	// Pool locks nest inside resMu, never around it.
	s.resMu.Lock()
	resolved := func(it queueing.Item) bool {
		_, ok := s.live[it.ID]
		return !ok
	}
	var snap [2]queueing.Snapshot
	for i := range s.pools {
		p := &s.pools[i]
		p.mu.Lock()
		p.DropWhere(resolved)
		shed := p.Shed(now)
		snap[i] = p.Snap(now)
		p.mu.Unlock()
		for _, it := range shed {
			if !resolved(it) { // unless another copy of it was shed first
				s.dropLocked(it)
			}
		}
	}
	s.flushResultsLocked()
	light, heavy := snap[loadbalancer.PoolLight], snap[loadbalancer.PoolHeavy]
	out := LBStats{
		Now:              now,
		LightQueueLen:    light.Len,
		HeavyQueueLen:    heavy.Len,
		LightArrivalRate: light.ArrivalRate,
		HeavyArrivalRate: heavy.ArrivalRate,
	}
	out.ArrivalsSinceTick, out.TimeoutsSinceTick = s.ledger.Tick()
	out.Completed, out.Dropped = s.ledger.Counts()
	for _, q := range s.live {
		if q.leased {
			out.InFlight++
		}
	}
	out.Reclaims = s.reclaims
	out.ShedRedelivery = s.shedRedelivery
	out.LateCompletions = s.lateCompletions
	s.resMu.Unlock()
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
