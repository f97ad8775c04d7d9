package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"diffserve/internal/loadbalancer"
)

// This file implements the sharded load-balancer tier: a frontend
// that partitions the query stream across N independent LBServer
// shards, each reachable through either Transport (inproc, tcp).
// One LBServer process tops out on its result lock and admission path
// long before "millions of users" arrival rates; partitioning query
// IDs across shards multiplies the admission and result throughput
// without any new wire messages — the frontend speaks the existing
// LBConn verbs to each shard.
//
// Membership is fixed when the frontend is built: shard i is
// ShardedLBConfig.Shards[i], and query id belongs to shard
// loadbalancer.ShardOf(id, N). Every process computes the owning shard
// locally and deterministically from the shard count, so a multi-host
// layout — one LB shard plus a worker group per host — needs no
// coordination service. The frontend records, for every query it
// tracks, the shard it was sent to — the owner, or a degraded owner's
// spill target — and sends the query's completion there and nowhere
// else.

// shardPullSlice bounds, in trace seconds, how long a frontend Pull
// parks on one shard before re-sweeping the others for work.
const shardPullSlice = 0.25

// pumpWait is the long-poll duration, in trace seconds, of each
// background result pump.
const pumpWait = 0.5

// degradeThreshold is the number of consecutive failed dispatches (or
// result-pump polls) against one shard before the frontend marks the
// shard degraded: new submits spill to the next shard and the degraded
// count surfaces in merged Stats. The first success un-degrades.
const degradeThreshold = 3

// ShardedLBConfig parameterizes the sharded frontend.
type ShardedLBConfig struct {
	// Shards are the per-shard connections, one per LBServer; Shards[i]
	// serves the queries loadbalancer.ShardOf assigns index i.
	Shards []LBConn
	// Clock converts long-poll waits (trace seconds) to wall time,
	// exactly as the shards themselves do.
	Clock *Clock
}

// ShardedLB partitions queries across independent LBServer shards by
// ShardOf and re-exposes them as one LBConn:
//
//   - SubmitBatch routes each query to its owning shard (batches fan
//     out per shard);
//   - PollResultsInto merges the shards' result streams: one
//     background pump per shard long-polls its shard and lands results
//     in a shared buffer with LBServer-identical wait semantics (pumps
//     start on the first PollResultsInto call, so a frontend used only
//     for control-plane fan-out never consumes results), and each call
//     first collects from the in-process shards itself;
//   - PullInto gathers up to req.Max queries from the shards, sweeping
//     from a rotating start and parking on one shard at a time between
//     empty sweeps;
//   - Complete sends each finished item to the one shard its query
//     was sent to;
//   - Configure broadcasts to every shard; Stats merges the shards'
//     reports;
//   - every fan-out (SubmitBatch, Complete, Configure) runs its legs
//     to in-process shards, and its last remote leg, on the caller's
//     goroutine; only the other remote legs get goroutines.
//
// Exactly one process may poll results through a given query's shard
// — the same destructive-read contract a single LBServer has.
type ShardedLB struct {
	cfg    ShardedLBConfig
	ctx    context.Context
	cancel context.CancelFunc
	// local is the in-process subset of cfg.Shards, which
	// PollResultsInto gathers from directly.
	local []LBConn

	// sentTo maps each in-flight query ID admitted through SubmitBatch
	// to the shard it was sent to, and Complete routes by it. A record
	// is released when its result lands.
	liveMu sync.Mutex
	sentTo map[int]int

	// cfgMu serializes policy broadcasts, so two concurrent Configure
	// calls cannot interleave and leave the shards on different
	// thresholds.
	cfgMu sync.Mutex

	// Result merge state: pumps append, PollResults drains.
	resMu     sync.Mutex
	results   []QueryResponse
	wake      notifier
	pumps     sync.WaitGroup
	pumpsOnce sync.Once

	// rr rotates Pull's sweep start across calls so concurrent
	// frontend pullers spread over the shards.
	rr atomic.Uint64

	// statsMu guards the carried tick counters: a shard's Stats call
	// destructively resets its since-tick counters, so when a later
	// shard's poll fails mid-merge the already-reset counters are
	// stashed here and folded into the next successful merge instead
	// of vanishing from the controller's demand estimate.
	statsMu       sync.Mutex
	carryArrivals int
	carryTimeouts int

	// Degradation state, indexed by shard. A shard that fails
	// degradeThreshold consecutive dispatches or pump polls is marked
	// degraded; while marked, new submits owned by it spill to the next
	// shard (see shardFor) and the merged Stats report the count. The
	// first success resets the streak and restores normal placement.
	// degradeMu is a leaf lock; degradedN mirrors the number of marked
	// shards so the healthy-tier placement fast path is one atomic load,
	// no lock.
	degradeMu  sync.Mutex
	shardFails []int
	degraded   []bool
	degradedN  atomic.Int32
}

// SplitShardAddrs parses a comma-separated shard address list,
// trimming whitespace and dropping empty entries (a trailing comma
// is not a shard). The cmd binaries share it so every -shard-addrs
// flag parses identically — the list order defines shards 0..N-1, and
// must match on every process — and the controller parses its
// -workers list with it too.
func SplitShardAddrs(csv string) []string {
	var addrs []string
	for _, a := range strings.Split(csv, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// DialShardedLB dials every shard of a comma-separated address list
// with DialLB and wraps the connections in a ShardedLB frontend —
// the standalone client's and controller's way onto a sharded tier.
func DialShardedLB(addrCSV string, clock *Clock) (*ShardedLB, error) {
	addrs := SplitShardAddrs(addrCSV)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no shard addresses in %q", addrCSV)
	}
	conns := make([]LBConn, len(addrs))
	for i, a := range addrs {
		conn, err := DialLB(a)
		if err != nil {
			return nil, fmt.Errorf("cluster: dialing shard %d: %w", i, err)
		}
		conns[i] = conn
	}
	return NewShardedLB(ShardedLBConfig{Shards: conns, Clock: clock})
}

// NewShardedLB builds the frontend over the given shard connections.
func NewShardedLB(cfg ShardedLBConfig) (*ShardedLB, error) {
	n := len(cfg.Shards)
	if n == 0 {
		return nil, fmt.Errorf("cluster: sharded LB needs at least one shard conn")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("cluster: sharded LB needs a clock")
	}
	cfg.Shards = append([]LBConn(nil), cfg.Shards...)
	var local []LBConn
	for _, c := range cfg.Shards {
		if inProcess(c) {
			local = append(local, c)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &ShardedLB{
		cfg: cfg, ctx: ctx, cancel: cancel,
		local:      local,
		sentTo:     map[int]int{},
		shardFails: make([]int, n),
		degraded:   make([]bool, n),
	}, nil
}

// Shards returns the number of shards.
func (s *ShardedLB) Shards() int { return len(s.cfg.Shards) }

// Close stops the result pumps. In-flight pump polls are cancelled and
// parked PollResultsInto calls return ErrTransportClosed; callers
// drain all expected results before closing, exactly as they would
// before tearing down a single LBServer's transport.
func (s *ShardedLB) Close() {
	s.cancel()
	s.resMu.Lock()
	s.wake.wake()
	s.resMu.Unlock()
	s.pumps.Wait()
}

// shardFor returns the shard query id routes to over N >= 2 shards:
// normally its owner, ShardOf(id, N), but a degraded owner's new
// submits spill to the next shard, (owner+1) mod N, while it is marked,
// so an unreachable shard does not blackhole its hash range. The spill
// target must itself be healthy; otherwise the owner keeps the query —
// a degraded shard is slow or unreachable, not forgotten, and whatever
// lands there still resolves once it recovers.
func (s *ShardedLB) shardFor(id int) int {
	n := len(s.cfg.Shards)
	owner := loadbalancer.ShardOf(id, n)
	if s.degradedN.Load() == 0 {
		return owner
	}
	next := (owner + 1) % n
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	if s.degraded[owner] && !s.degraded[next] {
		return next
	}
	return owner
}

// recordDispatch feeds one per-shard call outcome into the degradation
// tracker: failures extend the shard's streak (degrading it at the
// threshold), a success resets it.
func (s *ShardedLB) recordDispatch(shard int, err error) {
	if err != nil {
		s.recordShardFailure(shard)
	} else {
		s.recordShardSuccess(shard)
	}
}

// recordShardFailure counts one failed dispatch or pump poll against
// a shard, marking it degraded at degradeThreshold.
func (s *ShardedLB) recordShardFailure(i int) {
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	s.shardFails[i]++
	if s.shardFails[i] >= degradeThreshold && !s.degraded[i] {
		s.degraded[i] = true
		s.degradedN.Add(1)
	}
}

// recordShardSuccess resets a shard's failure streak and, if it was
// degraded, restores normal placement for its hash range.
func (s *ShardedLB) recordShardSuccess(i int) {
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	s.shardFails[i] = 0
	if s.degraded[i] {
		s.degraded[i] = false
		s.degradedN.Add(-1)
	}
}

// SubmitBatch splits the batch by owning shard and fans the per-shard
// batches out (see fanScratch.run: legs to in-process shards run
// inline, remote legs concurrently).
func (s *ShardedLB) SubmitBatch(ctx context.Context, req SubmitRequest) error {
	conns := s.cfg.Shards
	if len(conns) == 1 {
		s.trackBatch(0, req.Queries)
		err := conns[0].SubmitBatch(ctx, req)
		s.recordDispatch(0, err)
		if err != nil {
			s.untrackBatch(0, req.Queries)
		}
		return err
	}
	sc := getFanScratch(len(conns))
	defer putFanScratch(sc)
	for _, q := range req.Queries {
		sc.addQuery(s.shardFor(q.ID), q)
	}
	for _, i := range sc.legs {
		s.trackBatch(i, sc.queries[i])
	}
	return sc.run(conns, func(i int) error {
		g := sc.queries[i]
		err := conns[i].SubmitBatch(ctx, SubmitRequest{Queries: g})
		s.recordDispatch(i, err)
		if err != nil {
			s.untrackBatch(i, g)
		}
		return err
	})
}

// trackBatch records shard as where qs were sent, BEFORE the dispatch
// flies: results race the submit call, and a landing result must find
// the record to release it. A query already recorded (a client retry
// re-admitting an ID) moves to shard.
func (s *ShardedLB) trackBatch(shard int, qs []QueryMsg) {
	s.liveMu.Lock()
	for i := range qs {
		s.sentTo[qs[i].ID] = shard
	}
	s.liveMu.Unlock()
}

// untrackBatch releases queries whose dispatch to shard failed
// outright: the shard never admitted them (or, if it did and the reply
// was lost, their results land through the pump and find the record
// already gone — a harmless no-op; a completion for such a query routes
// to its owner, and if that misses shard the query relies on the
// lease-expiry reclaim). Skipping IDs recorded elsewhere meanwhile
// keeps a concurrent re-admission's newer record intact.
func (s *ShardedLB) untrackBatch(shard int, qs []QueryMsg) {
	s.liveMu.Lock()
	for i := range qs {
		if m, ok := s.sentTo[qs[i].ID]; ok && m == shard {
			delete(s.sentTo, qs[i].ID)
		}
	}
	s.liveMu.Unlock()
}

// untrackResults releases landed results' records.
func (s *ShardedLB) untrackResults(results []QueryResponse) {
	s.liveMu.Lock()
	for i := range results {
		delete(s.sentTo, results[i].ID)
	}
	s.liveMu.Unlock()
}

// inProcessConn is the capability of a conn whose calls dispatch
// straight into an LBServer in this process: they cost microseconds and
// never wait on a peer, so a fan-out runs them on the caller's
// goroutine and PollResults gathers from them directly. Only
// localLBConn claims it; retry and fault wrappers do not forward it, so
// a wrapped conn (which may sleep or back off) is treated as remote.
type inProcessConn interface{ dispatchesInProcess() }

func inProcess(conn LBConn) bool {
	_, ok := conn.(inProcessConn)
	return ok
}

// connLosses sums the shard conns' loss counts (see lossCounter).
func (s *ShardedLB) connLosses() uint64 {
	var n uint64
	for _, conn := range s.cfg.Shards {
		n += connLosses(conn)
	}
	return n
}

// fanScratch recycles one fan-out's state — the per-leg query or item
// groups (inner slice capacity included), the list of legs to run,
// their error slots and the join — so a steady stream of calls does not
// allocate. Grouped elements are value copies of the caller's and every
// leg joins before the scratch is returned, so recycling cannot alias a
// call still in flight.
type fanScratch struct {
	queries [][]QueryMsg     // SubmitBatch's groups, by leg
	items   [][]CompleteItem // Complete's groups, by leg
	legs    []int            // the legs this call dispatches
	errs    []error          // by leg
	wg      sync.WaitGroup
}

var fanScratchPool = sync.Pool{New: func() interface{} { return new(fanScratch) }}

// getFanScratch returns a scratch for up to n legs with empty groups,
// no legs listed and nil error slots.
func getFanScratch(n int) *fanScratch {
	sc := fanScratchPool.Get().(*fanScratch)
	if cap(sc.errs) < n {
		// Keep the inner capacity already grown.
		sc.queries = append(make([][]QueryMsg, 0, n), sc.queries[:cap(sc.queries)]...)
		sc.items = append(make([][]CompleteItem, 0, n), sc.items[:cap(sc.items)]...)
		sc.errs = make([]error, n)
	}
	sc.queries, sc.items, sc.errs = sc.queries[:n], sc.items[:n], sc.errs[:n]
	return sc
}

// addQuery puts q in leg's group, listing the leg on its first element.
func (sc *fanScratch) addQuery(leg int, q QueryMsg) {
	if len(sc.queries[leg]) == 0 {
		sc.legs = append(sc.legs, leg)
	}
	sc.queries[leg] = append(sc.queries[leg], q)
}

// addItem is addQuery for a completion item.
func (sc *fanScratch) addItem(leg int, it CompleteItem) {
	if len(sc.items[leg]) == 0 {
		sc.legs = append(sc.legs, leg)
	}
	sc.items[leg] = append(sc.items[leg], it)
}

// putFanScratch empties the scratch and recycles it. Items are zeroed
// rather than truncated: their Features alias the caller's buffers,
// which the pool must not keep reachable (or, under poolpoison, scribble
// on).
func putFanScratch(sc *fanScratch) {
	for _, i := range sc.legs {
		poisonQueries(sc.queries[i])
		sc.queries[i] = sc.queries[i][:0]
		clear(sc.items[i])
		poisonItems(sc.items[i])
		sc.items[i] = sc.items[i][:0]
		sc.errs[i] = nil
	}
	sc.legs = sc.legs[:0]
	fanScratchPool.Put(sc)
}

// run dispatches leg(i) for every listed leg and joins their errors.
// Legs to in-process conns run on the caller's goroutine, and so does
// the last remote leg — a call with one leg, or with only in-process
// ones, starts no goroutine; the other remote legs fly concurrently
// while the caller works through its own.
func (sc *fanScratch) run(conns []LBConn, leg func(i int) error) error {
	mine := -1 // the remote leg the caller keeps
	for _, i := range sc.legs {
		if inProcess(conns[i]) {
			continue
		}
		if mine >= 0 {
			sc.wg.Add(1)
			go func(i int) {
				defer sc.wg.Done()
				sc.errs[i] = leg(i)
			}(mine)
		}
		mine = i
	}
	for _, i := range sc.legs {
		if inProcess(conns[i]) {
			sc.errs[i] = leg(i)
		}
	}
	if mine >= 0 {
		sc.errs[mine] = leg(mine)
	}
	sc.wg.Wait()
	return errors.Join(sc.errs...)
}

// startPumps launches one result pump per shard, once, on first use.
func (s *ShardedLB) startPumps() {
	s.pumpsOnce.Do(func() {
		for i, conn := range s.cfg.Shards {
			s.pumps.Add(1)
			go s.pump(i, conn)
		}
	})
}

// pump long-polls one shard for results and lands them in the merged
// stream. Results are landed before the error is inspected: an
// in-process poll cancelled at shutdown still returns the batch it
// popped, and dropping it would lose resolved queries.
//
// The pump doubles as the degradation tracker's health probe: poll
// failures extend the shard's failure streak, and each successful
// poll — empty or not — resets it, which is what un-degrades a shard
// that came back without any new submits being risked on it first.
func (s *ShardedLB) pump(shard int, conn LBConn) {
	defer s.pumps.Done()
	var resp ResultsResponse // reused across iterations; land empties it
	for s.ctx.Err() == nil {
		resp.Results = resp.Results[:0] // a failed remote call leaves resp as it was
		err := conn.PollResultsInto(s.ctx, ResultsRequest{Max: 1024, Wait: pumpWait}, &resp)
		s.land(resp.Results)
		if err != nil {
			// Transient transport failure (or shutdown): back off so a
			// dead shard cannot spin the pump.
			if s.ctx.Err() == nil {
				s.recordShardFailure(shard)
			}
			s.cfg.Clock.WaitUntil(s.ctx, s.cfg.Clock.Now()+0.05, nil)
			continue
		}
		s.recordShardSuccess(shard)
	}
}

// land moves one shard poll's results into the merged stream and
// releases their records — the one way results enter the stream,
// whether a pump or a polling caller fetched them. The stream takes
// value copies, so each element's Features pointer is handed off by
// zeroing the element: the fetcher's next poll decodes into the same
// slice, and reusing that capacity would scribble on results already
// landed. The records are released first: a poller that returns a
// result never finds its record still held.
func (s *ShardedLB) land(results []QueryResponse) {
	if len(results) == 0 {
		return
	}
	s.untrackResults(results)
	s.resMu.Lock()
	s.results = append(s.results, results...)
	s.wake.wake()
	s.resMu.Unlock()
	clear(results)
}

// gatherResults polls every in-process shard once, without waiting,
// on the caller's goroutine and lands what they hold: a caller that
// polls right after the completions were reported finds every result
// in one call instead of being woken once per pump. Remote shards are
// left to their pumps — a round trip each is what the pumps exist to
// keep off this path.
func (s *ShardedLB) gatherResults(ctx context.Context) {
	if len(s.local) == 0 {
		return
	}
	leg := getResultsResponse()
	defer ReleaseMessage(leg)
	for _, conn := range s.local {
		// An in-process poll cannot fail, only observe ctx; what it
		// popped is landed either way and the caller sees ctx itself.
		_ = conn.PollResultsInto(ctx, ResultsRequest{Max: 1024}, leg)
		s.land(leg.Results)
	}
}

// PollResultsInto drains the merged result stream with the same wait
// semantics as LBServer.PollResultsInto: req.Wait <= 0 is an explicit
// non-blocking poll; otherwise the call blocks until at least one
// result arrives from any shard or the wait expires. Before it looks
// at the stream, every poll first gathers from the in-process shards
// itself (gatherResults), so results they already hold are returned by
// this call whether or not their pump has run; results of remote
// shards arrive through the pumps. resp.Results' capacity is reused;
// the caller owns the results until its next call with the same struct.
func (s *ShardedLB) PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) error {
	s.startPumps()
	max := req.Max
	if max <= 0 {
		max = 256
	}
	deadline := s.cfg.Clock.Now() + req.Wait
	for {
		s.gatherResults(ctx)
		s.resMu.Lock()
		s.takeInto(max, resp)
		var wake <-chan struct{}
		if len(resp.Results) == 0 && req.Wait > 0 {
			// Armed under the lock that guards the stream: a result a
			// pump lands from here on wakes this call, and so does Close.
			wake = s.wake.wait()
		}
		s.resMu.Unlock()
		if len(resp.Results) > 0 || req.Wait <= 0 || s.cfg.Clock.Now() >= deadline {
			return nil
		}
		// Checked after arming: a Close from here on wakes the wait.
		if s.ctx.Err() != nil {
			return ErrTransportClosed
		}
		if !s.cfg.Clock.WaitUntil(ctx, deadline, wake) {
			return ctx.Err()
		}
	}
}

// takeInto pops up to max merged results into resp.Results, reusing
// its capacity; an empty take leaves resp.Results at length zero (the
// buffer is kept). Callers must hold resMu.
func (s *ShardedLB) takeInto(max int, resp *ResultsResponse) {
	n := len(s.results)
	if n > max {
		n = max
	}
	resp.Results = append(resp.Results[:0], s.results[:n]...)
	s.results = append(s.results[:0], s.results[n:]...)
}

// PullInto gathers dispatchable work from the shards: starting at a
// rotating shard, so concurrent frontend pullers spread out, it asks
// each shard without waiting for what is still missing from req.Max
// and appends that shard's share, until the batch is full or every
// shard was asked — one call returns up to req.Max queries however
// they are spread over the shards. The response carries the earliest
// lease deadline and the latest QueuedAt of any share. A shard that
// fails after something was gathered costs the call nothing but that
// shard's share: the gathered queries are returned (they are leased to
// this caller) and the failure counts against the shard; a failure
// before anything was gathered is returned. With req.Wait > 0 an empty
// sweep parks on the round's first shard for a bounded slice of the
// remaining wait, then re-sweeps — work arriving on any shard is
// picked up within one slice.
// This is how the harness's workers pull: every worker of a role
// draws from every shard's queue of that role, so the tier serves
// each pool from one queue of all its workers, as the simulator does.
// Standalone workers of the multi-host layout instead dial their own
// shard and stay pinned to it. resp.Queries' capacity is reused across
// calls (an empty pull leaves Queries nil, as an LBServer's does).
func (s *ShardedLB) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error {
	conns := s.cfg.Shards
	n := len(conns)
	if n == 1 {
		return conns[0].PullInto(ctx, req, resp)
	}
	var deadline float64
	if req.Wait > 0 {
		deadline = s.cfg.Clock.Now() + req.Wait
	}
	got := resp.Queries[:0]
	*resp = PullResponse{}
	leg := getPullResponse()
	defer ReleaseMessage(leg)
	// ask pulls shard i's share of what is still missing into got and
	// reports whether the call is over: the batch is full or the shard
	// failed.
	ask := func(i int, wait float64) (over bool, err error) {
		r := req
		r.Wait, r.Max = wait, req.Max-len(got)
		leg.Queries = leg.Queries[:0] // a failed remote call leaves leg as it was
		err = conns[i].PullInto(ctx, r, leg)
		if len(leg.Queries) > 0 {
			got = append(got, leg.Queries...)
			if d := leg.LeaseDeadline; d > 0 && (resp.LeaseDeadline == 0 || d < resp.LeaseDeadline) {
				resp.LeaseDeadline = d
			}
			resp.QueuedAt = max(resp.QueuedAt, leg.QueuedAt)
		}
		if err != nil && len(got) > 0 {
			if ctx.Err() == nil { // the shard's failure, not the caller giving up
				s.recordShardFailure(i)
			}
			return true, nil
		}
		return err != nil || len(got) >= req.Max, err
	}
	for {
		start := int(s.rr.Add(1)-1) % n
		var over bool
		var err error
		for i := 0; i < n && !over; i++ {
			over, err = ask((start+i)%n, 0)
		}
		if !over && len(got) == 0 && req.Wait > 0 {
			if remain := deadline - s.cfg.Clock.Now(); remain > 0 {
				if over, err = ask(start, min(remain, shardPullSlice)); !over && len(got) == 0 {
					continue
				}
			}
		}
		if len(got) > 0 {
			resp.Queries = got
		}
		return err
	}
}

// Complete sends each finished item to the one shard that holds its
// query — the shard the frontend recorded sending it to (its owner, or
// a degraded owner's spill target), or, for a query it does not track,
// its owner — and fans the per-shard reports out (see fanScratch.run).
// A worker that pulled from a shard that took a spill still reports to
// the shard that can resolve it. Every leg carries the lease deadline
// the worker echoed, so the shard can tell a zombie report from a
// timely one.
func (s *ShardedLB) Complete(ctx context.Context, req CompleteRequest) error {
	conns := s.cfg.Shards
	n := len(conns)
	if n == 1 {
		return conns[0].Complete(ctx, req)
	}
	sc := getFanScratch(n)
	defer putFanScratch(sc)
	s.liveMu.Lock()
	for _, it := range req.Items {
		shard, ok := s.sentTo[it.ID]
		if !ok {
			shard = loadbalancer.ShardOf(it.ID, n)
		}
		sc.addItem(shard, it)
	}
	s.liveMu.Unlock()
	return sc.run(conns, func(i int) error {
		return conns[i].Complete(ctx, CompleteRequest{
			WorkerID: req.WorkerID, Role: req.Role, Items: sc.items[i], LeaseDeadline: req.LeaseDeadline,
		})
	})
}

// Configure broadcasts the policy update to every shard. cfgMu is held
// across the broadcast so two concurrent updates cannot interleave and
// leave some shards on each.
func (s *ShardedLB) Configure(ctx context.Context, req ConfigureLBRequest) error {
	s.cfgMu.Lock()
	defer s.cfgMu.Unlock()
	conns := s.cfg.Shards
	sc := getFanScratch(len(conns))
	defer putFanScratch(sc)
	for i := range conns {
		sc.legs = append(sc.legs, i)
	}
	return sc.run(conns, func(i int) error { return conns[i].Configure(ctx, req) })
}

// Stats merges the shards' control-plane reports: queue lengths,
// arrival rates, and counters sum; Now is the latest shard clock.
// Every shard is polled even after a failure — a poll destructively
// resets that shard's since-tick counters, so the counters gathered
// alongside a failed shard are carried over and folded into the next
// successful merge rather than dropped from the demand estimate.
func (s *ShardedLB) Stats(ctx context.Context) (LBStats, error) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	var out LBStats
	var firstErr error
	for _, conn := range s.cfg.Shards {
		st, err := conn.Stats(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if st.Now > out.Now {
			out.Now = st.Now
		}
		out.LightQueueLen += st.LightQueueLen
		out.HeavyQueueLen += st.HeavyQueueLen
		out.LightArrivalRate += st.LightArrivalRate
		out.HeavyArrivalRate += st.HeavyArrivalRate
		out.ArrivalsSinceTick += st.ArrivalsSinceTick
		out.TimeoutsSinceTick += st.TimeoutsSinceTick
		out.Completed += st.Completed
		out.Dropped += st.Dropped
		out.InFlight += st.InFlight
		out.Reclaims += st.Reclaims
		out.ShedRedelivery += st.ShedRedelivery
		out.LateCompletions += st.LateCompletions
		out.DegradedShards += st.DegradedShards
	}
	// The frontend's own degradation view rides on top of whatever the
	// shards reported (an LBServer never sets DegradedShards itself).
	out.DegradedShards += int(s.degradedN.Load())
	if firstErr != nil {
		s.carryArrivals += out.ArrivalsSinceTick
		s.carryTimeouts += out.TimeoutsSinceTick
		return LBStats{}, firstErr
	}
	out.ArrivalsSinceTick += s.carryArrivals
	out.TimeoutsSinceTick += s.carryTimeouts
	s.carryArrivals, s.carryTimeouts = 0, 0
	return out, nil
}
