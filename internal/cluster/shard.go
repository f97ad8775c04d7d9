package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
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
// Placement is a loadbalancer.Ring: loadbalancer.ShardOf over the
// sorted shard membership. Every process computes the owning shard
// locally and deterministically from the member list, so a multi-host
// layout — one LB shard plus a worker group per host — needs no
// coordination service, and members 0..N-1 route exactly as
// ShardOf(id, N).
//
// Membership is a runtime property. AddShard and RemoveShard install a
// new ring epoch: new submits atomically flip to the new ring (an
// RWMutex write barrier — a batch in flight lands entirely in the epoch
// it started under), and queued queries on a departing shard are
// drain-pulled back through the frontend and re-submitted to their new
// owners (PullRequest.Drain transfers ownership, so the move is
// exactly-once). Nothing else moves: an add drains no queue, so the
// flip remaps where new submits go and nothing already queued. The
// frontend records, for every query it tracks, the member it was sent
// to — the ring owner, a degraded owner's spill target, or a drain's
// migration target — and sends the query's completion there and
// nowhere else. Removed shards stay reachable as
// "retired" conns: their result pumps keep running, and PullInto keeps
// gathering from them, so a straggler (e.g. a deferral a completion
// pushed there after the drain ran) is still served and nothing a
// retired shard still holds is lost. Workers that pull through the
// frontend sweep the new membership on their next pull; a shard-pinned
// worker keeps its static pin.
//
// Retired conns are not kept forever. A retired member's own pump
// finalizes it once no tracked query is recorded at it: its cumulative
// counters are folded into the merged Stats baseline, and the pump
// exits instead of polling a drained shard forever.

// shardPullSlice bounds, in trace seconds, how long a frontend Pull
// parks on one shard before re-sweeping the others for work.
const shardPullSlice = 0.25

// pumpWait is the long-poll duration, in trace seconds, of each
// background result pump.
const pumpWait = 0.5

// degradeThreshold is the number of consecutive failed dispatches (or
// result-pump polls) against one shard before the frontend marks the
// member degraded: new submits spill to the ring's next owner and the
// degraded count surfaces in merged Stats. The first success
// un-degrades.
const degradeThreshold = 3

// ShardedLBConfig parameterizes the sharded frontend.
type ShardedLBConfig struct {
	// Shards are the per-shard connections, one per LBServer; Shards[i]
	// serves ring member i, the shard loadbalancer.ShardOf assigns index
	// i. Member IDs are never reused: a removed member stays retired for
	// the frontend's lifetime.
	Shards []LBConn
	// Clock converts long-poll waits (trace seconds) to wall time,
	// exactly as the shards themselves do.
	Clock *Clock
}

// epochRing is the installed placement: the ring plus the member
// connections as of its epoch. It is immutable once installed; a
// reshard replaces it whole.
type epochRing struct {
	epoch   int
	ring    *loadbalancer.Ring
	members []int    // sorted ascending
	conns   []LBConn // parallel to members
	slot    map[int]int
}

func (e *epochRing) conn(member int) LBConn {
	if i, ok := e.slot[member]; ok {
		return e.conns[i]
	}
	return nil
}

// ShardedLB partitions queries across independent LBServer shards by
// ShardOf over the member list and re-exposes them as one LBConn:
//
//   - SubmitBatch routes each query to its owning shard under the
//     current ring epoch (batches fan out per shard, and a whole batch
//     lands in exactly one epoch);
//   - PollResultsInto merges the shards' result streams: one
//     background pump per shard long-polls its shard and lands results
//     in a shared buffer with LBServer-identical wait semantics (pumps
//     start lazily on the first PollResultsInto call, so a frontend
//     used only for control-plane fan-out never consumes results), and
//     each call first collects from the in-process shards itself;
//   - PullInto gathers up to req.Max queries from the shards (retired
//     ones included), sweeping from a rotating start and parking on
//     one shard at a time between empty sweeps;
//   - Complete sends each finished item to the one shard its query
//     was sent to;
//   - Configure broadcasts to every reachable shard; Stats merges the
//     shards' reports;
//   - every fan-out (SubmitBatch, Complete, Configure) runs its legs
//     to in-process shards, and its last remote leg, on the caller's
//     goroutine; only the other remote legs get goroutines;
//   - AddShard / RemoveShard change membership at runtime (see the
//     file comment for the migration protocol).
//
// Exactly one process may poll results through a given query's shard
// — the same destructive-read contract a single LBServer has.
type ShardedLB struct {
	cfg    ShardedLBConfig
	ctx    context.Context
	cancel context.CancelFunc

	// ringMu guards the ring and the retired set. Submit fan-out holds
	// it for reading across the whole batch flight, which is the write
	// barrier that makes a reshard flip atomic per batch.
	ringMu  sync.RWMutex
	ring    epochRing
	retired map[int]LBConn // removed member -> conn, kept for stragglers
	// sweep is the immutable list of every reachable member (current
	// members in ascending order, then retired members) that PullInto
	// sweeps, PollResultsInto gathers from, Complete routes over and
	// Configure/Stats broadcast to, rebuilt on every reshard so a
	// snapshot is a slice read, not a copy.
	sweep sweepList

	// reshardMu serializes membership changes end to end (flip +
	// drain), so two concurrent reshards cannot interleave their
	// migrations.
	reshardMu sync.Mutex

	// Where each tracked query lives. sentTo maps each in-flight query
	// ID admitted through SubmitBatch (or migrated by a drain) to the
	// member it was sent to, and Complete routes by it; memberLive
	// counts the records per member, and a retired member with none is
	// quiesced. A record is released when its result lands. liveMu is a
	// leaf lock, taken under ringMu.
	liveMu     sync.Mutex
	sentTo     map[int]int
	memberLive map[int]int

	// cfgMu guards the last configured policy AND serializes policy
	// broadcasts: a reshard re-broadcasts lastCfg to the new
	// membership, and without the serialization it could interleave
	// with a concurrent Configure and overwrite a newer threshold with
	// a stale one on some shards.
	cfgMu   sync.Mutex
	lastCfg ConfigureLBRequest

	// Result merge state: pumps append, PollResults drains.
	resMu   sync.Mutex
	results []QueryResponse
	wake    notifier
	pumps   sync.WaitGroup

	// pumpMu guards lazy pump startup; pumped tracks the members whose
	// pump is already running (member IDs are never reused, so a
	// member maps to one conn forever). pumpsUp short-circuits
	// startPumps once the initial scan has run — PollResults calls it
	// on every poll, and reshardLocked starts pumps for members added
	// later, so re-scanning would be pure lock traffic. A finalized
	// member's pump has exited and, still marked pumped, never restarts.
	pumpMu  sync.Mutex
	pumping bool
	pumped  map[int]bool
	pumpsUp atomic.Bool

	// rr rotates Pull's sweep start across calls so concurrent
	// frontend pullers spread over the shards.
	rr atomic.Uint64

	// statsMu guards the carried tick counters: a shard's Stats call
	// destructively resets its since-tick counters, so when a later
	// shard's poll fails mid-merge the already-reset counters are
	// stashed here and folded into the next successful merge instead
	// of vanishing from the controller's demand estimate. It is held
	// across the whole merge, which also serializes the merge against
	// retired-member finalization — a finalizing member's last poll
	// must fold into retiredBase exactly once, never alongside a
	// concurrent merge poll of the same conn. retiredBase accumulates
	// the cumulative counters of finalized members, so their completed
	// and dropped work stays visible after their conns stop being
	// polled.
	statsMu       sync.Mutex
	carryArrivals int
	carryTimeouts int
	retiredBase   LBStats

	// Degradation state. A member that fails degradeThreshold
	// consecutive dispatches or pump polls is marked degraded; while
	// marked, new submits owned by it spill to the ring's next owner
	// (see shardFor) and the merged Stats report the count. The first
	// success resets the streak and restores normal placement.
	// degradeMu is a leaf lock (safe under ringMu); degradedN mirrors
	// len(degraded) so the healthy-tier placement fast path is one
	// atomic load, no lock.
	degradeMu   sync.Mutex
	memberFails map[int]int
	degraded    map[int]bool
	degradedN   atomic.Int32
}

// SplitShardAddrs parses a comma-separated shard address list,
// trimming whitespace and dropping empty entries (a trailing comma
// is not a shard). The cmd binaries share it so every -shard-addrs
// flag parses identically — the list order defines the initial ring
// members 0..N-1, and must match on every process — and the
// controller parses its -workers list with it too.
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
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: sharded LB needs at least one shard conn")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("cluster: sharded LB needs a clock")
	}
	e := epochRing{
		members: make([]int, len(cfg.Shards)),
		conns:   append([]LBConn(nil), cfg.Shards...),
		slot:    make(map[int]int, len(cfg.Shards)),
	}
	for i := range e.members {
		e.members[i] = i
		e.slot[i] = i
	}
	e.ring = loadbalancer.NewRing(e.members)
	ctx, cancel := context.WithCancel(context.Background())
	return &ShardedLB{
		cfg: cfg, ctx: ctx, cancel: cancel,
		ring:        e,
		retired:     map[int]LBConn{},
		pumped:      map[int]bool{},
		sweep:       newSweepList(e.members, e.conns),
		memberFails: map[int]int{},
		degraded:    map[int]bool{},
		sentTo:      map[int]int{},
		memberLive:  map[int]int{},
	}, nil
}

// Shards returns the number of shards currently in the ring.
func (s *ShardedLB) Shards() int {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return len(s.ring.members)
}

// Epoch returns the current ring epoch: the number of reshards so far.
func (s *ShardedLB) Epoch() int {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return s.ring.epoch
}

// Members returns the current ring membership, sorted ascending.
func (s *ShardedLB) Members() []int {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return append([]int(nil), s.ring.members...)
}

// memberConn returns the connection serving a member ID, retired
// members included (their stragglers still resolve there), or nil.
func (s *ShardedLB) memberConn(m int) LBConn {
	sweep := s.sweepConns()
	if i, ok := sweep.slot[m]; ok {
		return sweep.conns[i]
	}
	return nil
}

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

// shardFor returns the slot index query id routes to under cur:
// normally the ring owner, but a degraded owner's new submits spill to
// the ring's next owner while it is marked, so an unreachable shard
// does not blackhole its hash range. The spill target must itself be a
// current, healthy member; otherwise the primary keeps the query — a
// degraded shard is slow or unreachable, not forgotten, and whatever
// lands there still resolves once it recovers (or is migrated when the
// controller reshards it away). Callers hold ringMu for reading.
func (s *ShardedLB) shardFor(cur *epochRing, id int) int {
	owner := cur.ring.Owner(id)
	if s.degradedN.Load() == 0 {
		return cur.slot[owner]
	}
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	if !s.degraded[owner] {
		return cur.slot[owner]
	}
	if next := cur.ring.NextOwner(id); next != owner && !s.degraded[next] {
		if i, ok := cur.slot[next]; ok {
			return i
		}
	}
	return cur.slot[owner]
}

// recordDispatch feeds one per-shard call outcome into the degradation
// tracker: failures extend the member's streak (degrading it at the
// threshold), a success resets it.
func (s *ShardedLB) recordDispatch(member int, err error) {
	if err != nil {
		s.recordMemberFailure(member)
	} else {
		s.recordMemberSuccess(member)
	}
}

// recordMemberFailure counts one failed dispatch or pump poll against
// a member, marking it degraded at degradeThreshold.
func (s *ShardedLB) recordMemberFailure(m int) {
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	s.memberFails[m]++
	if s.memberFails[m] >= degradeThreshold && !s.degraded[m] {
		s.degraded[m] = true
		s.degradedN.Add(1)
	}
}

// recordMemberSuccess resets a member's failure streak and, if it was
// degraded, restores normal placement for its hash range.
func (s *ShardedLB) recordMemberSuccess(m int) {
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	if s.memberFails[m] == 0 && !s.degraded[m] {
		return
	}
	s.memberFails[m] = 0
	if s.degraded[m] {
		delete(s.degraded, m)
		s.degradedN.Add(-1)
	}
}

// DegradedMembers returns the member IDs currently marked degraded,
// sorted ascending. The count surfaces in merged Stats
// (LBStats.DegradedShards); tests and operators read identities here.
func (s *ShardedLB) DegradedMembers() []int {
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	out := make([]int, 0, len(s.degraded))
	for m := range s.degraded {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// SubmitBatch splits the batch by owning shard under the current ring
// epoch and fans the per-shard batches out (see fanScratch.run: legs
// to in-process shards run inline, remote legs concurrently). The
// epoch is held (shared-locked) for the whole flight: an AddShard or
// RemoveShard call barriers behind in-flight batches, so every batch
// lands entirely in one epoch — never straddling two rings.
func (s *ShardedLB) SubmitBatch(ctx context.Context, req SubmitRequest) error {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	cur := &s.ring
	n := len(cur.conns)
	if n == 1 {
		s.trackBatch(cur.members[0], req.Queries)
		err := cur.conns[0].SubmitBatch(ctx, req)
		s.recordDispatch(cur.members[0], err)
		if err != nil {
			s.untrackBatch(cur.members[0], req.Queries)
		}
		return err
	}
	sc := getFanScratch(n)
	defer putFanScratch(sc)
	for _, q := range req.Queries {
		sc.addQuery(s.shardFor(cur, q.ID), q)
	}
	for _, i := range sc.legs {
		s.trackBatch(cur.members[i], sc.queries[i])
	}
	return sc.run(cur.conns, func(i int) error {
		g := sc.queries[i]
		err := cur.conns[i].SubmitBatch(ctx, SubmitRequest{Queries: g, Pool: req.Pool})
		s.recordDispatch(cur.members[i], err)
		if err != nil {
			s.untrackBatch(cur.members[i], g)
		}
		return err
	})
}

// trackBatch records member as where qs were sent, BEFORE the dispatch
// flies: results race the submit call, and a landing result must find
// the record to release it. Callers hold ringMu for reading with member
// in the current ring. A query already recorded (a client retry
// re-admitting an ID, or a drain migrating it) moves to member.
func (s *ShardedLB) trackBatch(member int, qs []QueryMsg) {
	s.liveMu.Lock()
	for i := range qs {
		id := qs[i].ID
		if old, ok := s.sentTo[id]; ok {
			s.memberLive[old]--
		}
		s.sentTo[id] = member
		s.memberLive[member]++
	}
	s.liveMu.Unlock()
}

// untrackBatch releases queries whose dispatch to member failed
// outright: the shard never admitted them (or, if it did and the reply
// was lost, their results land through the pump and find the record
// already gone — a harmless no-op; a completion for such a query routes
// by the current ring, and if that misses member the query relies on
// the lease-expiry reclaim). Skipping IDs recorded elsewhere meanwhile
// keeps a concurrent re-admission's newer record intact.
func (s *ShardedLB) untrackBatch(member int, qs []QueryMsg) {
	s.liveMu.Lock()
	for i := range qs {
		if m, ok := s.sentTo[qs[i].ID]; ok && m == member {
			delete(s.sentTo, qs[i].ID)
			s.memberLive[m]--
		}
	}
	s.liveMu.Unlock()
}

// untrackResults releases landed results' records.
func (s *ShardedLB) untrackResults(results []QueryResponse) {
	s.liveMu.Lock()
	for i := range results {
		if m, ok := s.sentTo[results[i].ID]; ok {
			delete(s.sentTo, results[i].ID)
			s.memberLive[m]--
		}
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

// startPumps launches the result pumps lazily on first use, and marks
// the frontend as pumping so later reshards start pumps for the
// shards they add.
func (s *ShardedLB) startPumps() {
	if s.pumpsUp.Load() {
		return
	}
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	s.pumping = true
	sweep := s.sweepConns()
	for i, m := range sweep.members {
		if !s.pumped[m] {
			s.pumped[m] = true
			s.pumps.Add(1)
			go s.pump(m, sweep.conns[i])
		}
	}
	s.pumpsUp.Store(true)
}

// pump long-polls one shard for results and lands them in the merged
// stream. Results are landed before the error is inspected: an
// in-process poll cancelled at shutdown still returns the batch it
// popped, and dropping it would lose resolved queries. Retired
// shards keep their pump — stragglers completed there after a
// reshard still surface in the merged stream — until, after a
// successful poll, no tracked query is recorded at the member: the
// pump then finalizes it and exits instead of long-polling a drained
// shard forever. A member retired before pumping began is finalized by
// its first pump (startPumps covers the whole sweep list).
//
// The pump doubles as the degradation tracker's health probe: poll
// failures extend the member's failure streak, and each successful
// poll — empty or not — resets it, which is what un-degrades a shard
// that came back without any new submits being risked on it first.
func (s *ShardedLB) pump(member int, conn LBConn) {
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
				s.recordMemberFailure(member)
			}
			s.cfg.Clock.WaitUntil(s.ctx, s.cfg.Clock.Now()+0.05, nil)
			continue
		}
		s.recordMemberSuccess(member)
		if s.retiredQuiesced(member) && s.finalizeRetired(member, conn) {
			return
		}
	}
}

// land moves one member poll's results into the merged stream and
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

// gatherResults polls every in-process member once, without waiting,
// on the caller's goroutine and lands what they hold: a caller that
// polls right after the completions were reported finds every result
// in one call instead of being woken once per pump. Remote members are
// left to their pumps — a round trip each is what the pumps exist to
// keep off this path.
func (s *ShardedLB) gatherResults(ctx context.Context) {
	sweep := s.sweepConns()
	if len(sweep.local) == 0 {
		return
	}
	leg := getResultsResponse()
	defer ReleaseMessage(leg)
	for _, conn := range sweep.local {
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
// at the stream, every poll first gathers from the in-process members
// itself (gatherResults), so results they already hold are returned by
// this call whether or not their pump has run; results of remote
// members arrive through the pumps. resp.Results' capacity is reused;
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

// sweepList is an immutable snapshot of every reachable member:
// current members in ascending order, then retired shards — a
// straggler parked in a retired shard's queue is still dispatchable
// work, and its policy and counters still matter.
type sweepList struct {
	members []int
	conns   []LBConn    // parallel to members
	slot    map[int]int // member -> index into members and conns
	local   []LBConn    // the in-process subset of conns
}

func newSweepList(members []int, conns []LBConn) sweepList {
	l := sweepList{members: members, conns: conns, slot: make(map[int]int, len(members))}
	for i, c := range conns {
		l.slot[members[i]] = i
		if inProcess(c) {
			l.local = append(l.local, c)
		}
	}
	return l
}

// sweepConns snapshots the sweep list. The list is rebuilt only on
// reshard, so the per-call cost is a struct read.
func (s *ShardedLB) sweepConns() sweepList {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return s.sweep
}

// rebuildSweepLocked recomputes the sweep list. Callers hold ringMu
// exclusively.
func (s *ShardedLB) rebuildSweepLocked() {
	members := append([]int(nil), s.ring.members...)
	conns := append([]LBConn(nil), s.ring.conns...)
	if len(s.retired) > 0 {
		ms := make([]int, 0, len(s.retired))
		for m := range s.retired {
			ms = append(ms, m)
		}
		sort.Ints(ms)
		for _, m := range ms {
			members = append(members, m)
			conns = append(conns, s.retired[m])
		}
	}
	s.sweep = newSweepList(members, conns)
}

// PullInto gathers dispatchable work from the shards: starting at a
// rotating shard, so concurrent frontend pullers spread out, it asks
// each shard without waiting for what is still missing from req.Max
// and appends that shard's share, until the batch is full or every
// shard (retired ones included) was asked — one call returns up to
// req.Max queries however they are spread over the shards. The
// response carries the earliest lease deadline and the latest QueuedAt
// of any share. A shard that fails after something was gathered costs
// the call nothing but that shard's share: the gathered queries are
// returned (they are leased to this caller) and the failure counts
// against the member; a failure before anything was gathered is
// returned. With req.Wait > 0 an empty sweep
// parks on the round's first shard for a bounded slice of the
// remaining wait, then re-sweeps — work arriving on any shard is
// picked up within one slice. A Drain pull transfers ownership of one
// shard's queue at a time and returns the first non-empty share.
// This is how the harness's workers pull: every worker of a role
// draws from every shard's queue of that role, so the tier serves
// each pool from one queue of all its workers, as the simulator does.
// Standalone workers of the multi-host layout instead dial their own
// shard and stay pinned to it. resp.Queries' capacity is reused across
// calls (an empty pull leaves Queries nil, as an LBServer's does).
func (s *ShardedLB) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error {
	sweep := s.sweepConns()
	n := len(sweep.conns)
	if n == 1 {
		return sweep.conns[0].PullInto(ctx, req, resp)
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
	// reports whether the call is over: the batch is full, a drain found
	// a share, or the shard failed.
	ask := func(i int, wait float64) (over bool, err error) {
		r := req
		r.Wait, r.Max = wait, req.Max-len(got)
		leg.Queries = leg.Queries[:0] // a failed remote call leaves leg as it was
		err = sweep.conns[i].PullInto(ctx, r, leg)
		if len(leg.Queries) > 0 {
			got = append(got, leg.Queries...)
			if d := leg.LeaseDeadline; d > 0 && (resp.LeaseDeadline == 0 || d < resp.LeaseDeadline) {
				resp.LeaseDeadline = d
			}
			resp.QueuedAt = max(resp.QueuedAt, leg.QueuedAt)
		}
		if err != nil && len(got) > 0 {
			if ctx.Err() == nil { // the member's failure, not the caller giving up
				s.recordMemberFailure(sweep.members[i])
			}
			return true, nil
		}
		return err != nil || (len(got) > 0 && (req.Drain || len(got) >= req.Max)), err
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
// query — the member the frontend recorded sending it to (by
// SubmitBatch, after any degrade spill, or by a drain migration), or,
// for a query it does not track, the current ring's owner — and fans
// the per-shard reports out (see fanScratch.run). A worker that pulled
// before a reshard, or from a shard that took a spill, still reports
// to the shard that can resolve it. Every leg carries the lease
// deadline the worker echoed, so the shard can tell a zombie report
// from a timely one.
func (s *ShardedLB) Complete(ctx context.Context, req CompleteRequest) error {
	s.ringMu.RLock()
	sweep, ring := s.sweep, s.ring.ring
	if len(sweep.conns) == 1 {
		s.ringMu.RUnlock()
		return sweep.conns[0].Complete(ctx, req)
	}
	sc := getFanScratch(len(sweep.conns))
	defer putFanScratch(sc)
	// Both reads under ringMu: a recorded member is in the sweep list,
	// because records go only to current members and a retired member
	// finalizes only once nothing is recorded at it.
	s.liveMu.Lock()
	for _, it := range req.Items {
		m, ok := s.sentTo[it.ID]
		if !ok {
			m = ring.Owner(it.ID)
		}
		sc.addItem(sweep.slot[m], it)
	}
	s.liveMu.Unlock()
	s.ringMu.RUnlock()
	return sc.run(sweep.conns, func(i int) error {
		return sweep.conns[i].Complete(ctx, CompleteRequest{
			WorkerID: req.WorkerID, Role: req.Role, Items: sc.items[i], LeaseDeadline: req.LeaseDeadline,
		})
	})
}

// Configure broadcasts the policy update to every shard, retired ones
// included: a straggler a retired shard still serves is thresholded
// like any other. The policy is remembered and re-broadcast whenever
// membership changes, so a newly added shard gets it too.
func (s *ShardedLB) Configure(ctx context.Context, req ConfigureLBRequest) error {
	// cfgMu is held across the broadcast so a reshard's re-broadcast
	// of the remembered policy cannot interleave with (and partially
	// overwrite) a newer policy in flight.
	s.cfgMu.Lock()
	defer s.cfgMu.Unlock()
	s.lastCfg = req
	return s.broadcast(ctx, req)
}

// broadcast fans a configure message out to every reachable shard.
func (s *ShardedLB) broadcast(ctx context.Context, req ConfigureLBRequest) error {
	sweep := s.sweepConns()
	sc := getFanScratch(len(sweep.conns))
	defer putFanScratch(sc)
	for i := range sweep.conns {
		sc.legs = append(sc.legs, i)
	}
	return sc.run(sweep.conns, func(i int) error { return sweep.conns[i].Configure(ctx, req) })
}

// Stats merges the shards' control-plane reports — retired shards
// included, whose counters cover queries they resolved before (or
// while) being drained: queue lengths, arrival rates, and counters
// sum; Now is the latest shard clock. Every shard is polled even
// after a failure — a poll destructively resets that shard's
// since-tick counters, so the counters gathered alongside a failed
// shard are carried over and folded into the next successful merge
// rather than dropped from the demand estimate.
func (s *ShardedLB) Stats(ctx context.Context) (LBStats, error) {
	// statsMu is held across the whole merge (control-plane cadence, so
	// the hold is cheap): it guards the carried counters and serializes
	// the merge against retired-member finalization, whose last
	// destructive poll of a conn must never interleave with a merge
	// poll of the same conn.
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	sweep := s.sweepConns()
	var out LBStats
	var firstErr error
	for _, conn := range sweep.conns {
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
	// Finalized retired members are no longer polled; their cumulative
	// counters live on in the accumulated baseline.
	out.Completed += s.retiredBase.Completed
	out.Dropped += s.retiredBase.Dropped
	out.Reclaims += s.retiredBase.Reclaims
	out.ShedRedelivery += s.retiredBase.ShedRedelivery
	out.LateCompletions += s.retiredBase.LateCompletions
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

// AddShard grows the ring by one member served by conn.
func (s *ShardedLB) AddShard(ctx context.Context, member int, conn LBConn) error {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	cur := s.Members()
	for _, m := range cur {
		if m == member {
			return fmt.Errorf("cluster: shard member %d already in the ring", member)
		}
	}
	return s.reshardLocked(ctx, append(cur, member), map[int]LBConn{member: conn})
}

// RemoveShard shrinks the ring by one member, migrating its queued
// queries to the survivors. The member's connection stays reachable
// (retired) so in-flight completions and deferrals still resolve.
func (s *ShardedLB) RemoveShard(ctx context.Context, member int) error {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	cur := s.Members()
	next := make([]int, 0, len(cur))
	for _, m := range cur {
		if m != member {
			next = append(next, m)
		}
	}
	if len(next) == len(cur) {
		return fmt.Errorf("cluster: shard member %d not in the ring", member)
	}
	if len(next) == 0 {
		return fmt.Errorf("cluster: cannot remove the last shard member %d", member)
	}
	return s.reshardLocked(ctx, next, nil)
}

// reshardLocked is the membership-change core: it installs epoch
// cur+1 over members, which AddShard and RemoveShard keep non-empty and
// free of duplicates. Callers hold reshardMu. newConns must provide a
// connection for every member not already in the ring; members being
// removed keep their existing connection and become retired. The flip
// is atomic with respect to submit batches (each lands entirely in one
// epoch); queued queries on departing shards are drain-pulled and
// re-submitted to their new owners, and a straggler that reaches a
// retired shard afterwards (a deferral from a batch pulled before the
// flip) is served there by the frontend's pullers. Member IDs are never
// reused: re-adding a retired member is an error, because its old conn
// may still hold registrations.
//
// Scope: the flip is THIS frontend's (plus its pullers', which sweep
// the new membership on their next pull). No other process is told of
// it, so every puller of the shards must pull through this frontend,
// as the harness's workers do.
func (s *ShardedLB) reshardLocked(ctx context.Context, members []int, newConns map[int]LBConn) error {
	s.ringMu.Lock()
	cur := s.ring
	next := epochRing{
		epoch:   cur.epoch + 1,
		members: append([]int(nil), members...),
		slot:    make(map[int]int, len(members)),
	}
	sort.Ints(next.members)
	next.conns = make([]LBConn, len(next.members))
	for i, m := range next.members {
		next.slot[m] = i
		switch {
		case cur.conn(m) != nil:
			next.conns[i] = cur.conn(m)
		case newConns[m] != nil:
			if _, was := s.retired[m]; was {
				s.ringMu.Unlock()
				return fmt.Errorf("cluster: member %d was retired and cannot rejoin; use a fresh member ID", m)
			}
			next.conns[i] = newConns[m]
		default:
			s.ringMu.Unlock()
			return fmt.Errorf("cluster: no connection for new shard member %d", m)
		}
	}
	next.ring = loadbalancer.NewRing(next.members)
	var removed []LBConn
	for i, m := range cur.members {
		if _, keep := next.slot[m]; !keep {
			s.retired[m] = cur.conns[i]
			removed = append(removed, cur.conns[i])
		}
	}
	// The flip: acquiring ringMu exclusively barriered behind every
	// in-flight submit batch, so batches before this line routed
	// entirely by the old ring and batches after route by the new one.
	s.ring = next
	s.rebuildSweepLocked()
	s.ringMu.Unlock()

	// New shards join the merged result stream if pumping already
	// began (pump startup is otherwise lazy).
	s.pumpMu.Lock()
	if s.pumping {
		for i, m := range next.members {
			if !s.pumped[m] {
				s.pumped[m] = true
				s.pumps.Add(1)
				go s.pump(m, next.conns[i])
			}
		}
	}
	s.pumpMu.Unlock()

	// Re-broadcast the remembered policy, so a newly added shard
	// thresholds like the others. cfgMu is held across the broadcast so
	// a racing Configure cannot end up partially overwritten by this
	// stale policy.
	s.cfgMu.Lock()
	_ = s.broadcast(ctx, s.lastCfg)
	s.cfgMu.Unlock()

	// Migrate departing shards' queued work to the new owners.
	for _, conn := range removed {
		s.drainShard(ctx, conn)
	}
	return nil
}

// drainShard pulls everything queued on a departing shard with
// ownership transfer and re-queues it on the current (post-flip)
// ring's owners. Arrival stamps ride along, so migrated queries keep
// their SLO deadlines, and the pool rides along too: a deferral
// drained from the heavy queue re-enters its new shard's heavy queue
// instead of re-running the light model from scratch. It reports
// whether any round handed queries over.
//
// Like pump(), it
// re-queues whatever a drain round returned before inspecting the
// round's error: the departing shard has already forgotten those
// queries' registrations, so an errored-but-non-empty response (an
// in-process pull cancelled mid-call returns both) still carries
// queries that only this caller can keep alive. (A wire-level drain
// whose response is lost entirely after the server popped it remains
// unrecoverable — the same at-most-once pull semantics every worker
// pull has.)
func (s *ShardedLB) drainShard(ctx context.Context, conn LBConn) {
	var resp PullResponse
	for _, role := range []string{"light", "heavy"} {
		for {
			resp.Queries = resp.Queries[:0] // a failed remote call leaves resp as it was
			err := conn.PullInto(ctx, PullRequest{Role: role, Max: 512, Drain: true}, &resp)
			if len(resp.Queries) > 0 {
				s.resubmitMigrated(resp.Queries, role)
			}
			if err != nil || len(resp.Queries) == 0 {
				break
			}
		}
	}
}

// resubmitMigrated re-queues drained queries on their current ring
// owners, retrying failed shards until they land or the frontend
// closes: the departing shard already forgot these queries'
// registrations, so giving up would lose them outright — which is
// why the retries run under the frontend's own lifetime context, not
// the reshard caller's (a caller's context dying must not strand
// half-migrated queries).
//
// The grouping is computed ONCE, under the ring at entry, and every
// retry re-targets the same shard: a submit that errored after being
// applied server-side re-queues a duplicate, and the idempotent
// resolve machinery only collapses duplicates that live on the SAME
// shard (liveLocked state is per-LBServer). Re-grouping a retry
// under a ring that resharded mid-back-off could register the query
// on a second live shard and double-resolve it. If the targeted
// shard is itself removed while retries are in flight, the query
// still lands there (retired conns stay reachable) and the frontend's
// pullers serve it from the retired shard — one registration at a
// time, always.
func (s *ShardedLB) resubmitMigrated(queries []QueryMsg, pool string) {
	ctx := s.ctx
	s.ringMu.RLock()
	cur := s.ring // immutable: its conns stay valid after the unlock
	conns := cur.conns
	groups := make([][]QueryMsg, len(conns))
	for _, q := range queries {
		sh := cur.slot[cur.ring.Owner(q.ID)]
		groups[sh] = append(groups[sh], q)
	}
	// Migration rewrites each query's record to its new shard: the old
	// shard forgot it, so its completion must go to the new one.
	for i, g := range groups {
		s.trackBatch(cur.members[i], g)
	}
	s.ringMu.RUnlock()
	for {
		pending := false
		for i, g := range groups {
			if len(g) == 0 {
				continue
			}
			if err := conns[i].SubmitBatch(ctx, SubmitRequest{Queries: g, Pool: pool}); err != nil {
				pending = true
				continue
			}
			groups[i] = nil
		}
		if !pending || s.ctx.Err() != nil {
			return
		}
		// Back off as the pump does, so a dead shard is not hammered.
		if !s.cfg.Clock.WaitUntil(s.ctx, s.cfg.Clock.Now()+0.05, nil) {
			return
		}
	}
}

// retiredQuiesced reports whether member is retired and no tracked
// query is recorded at it. Quiescence of a retired member is monotonic:
// records go only to current members, and member IDs are never reused.
func (s *ShardedLB) retiredQuiesced(member int) bool {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	if _, ok := s.retired[member]; !ok {
		return false
	}
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	return s.memberLive[member] == 0
}

// finalizeRetired retires a member for good: its last Stats snapshot
// folds into the merged-Stats baseline (cumulative counters stay
// visible forever; the destructively-read tick counters carry into
// the next merge), the conn leaves the retired set and the Pull
// sweep. It reports whether it did; a failed final poll leaves the
// member retired for its pump's next round. Holding statsMu across
// poll, fold and removal keeps a concurrent merge from polling the conn
// around the snapshot, which would double-count.
func (s *ShardedLB) finalizeRetired(member int, conn LBConn) bool {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	st, err := conn.Stats(s.ctx)
	if err != nil {
		return false
	}
	s.retiredBase.Completed += st.Completed
	s.retiredBase.Dropped += st.Dropped
	s.retiredBase.Reclaims += st.Reclaims
	s.retiredBase.ShedRedelivery += st.ShedRedelivery
	s.retiredBase.LateCompletions += st.LateCompletions
	s.carryArrivals += st.ArrivalsSinceTick
	s.carryTimeouts += st.TimeoutsSinceTick

	s.ringMu.Lock()
	delete(s.retired, member)
	s.rebuildSweepLocked()
	s.ringMu.Unlock()
	return true
}

// RetiredMembers returns the removed members still awaiting
// finalization, sorted ascending.
func (s *ShardedLB) RetiredMembers() []int {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	out := make([]int, 0, len(s.retired))
	for m := range s.retired {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}
