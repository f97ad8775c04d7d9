package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"diffserve/internal/baselines"
	"diffserve/internal/cluster"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/stats"
)

// Closed-loop sizing: cycles per second asked for, measured on the
// 2-core reference box (README.md, "Sizing").
const (
	// Both closed loops run the same number of cycles. The sharded one
	// finishes in half the time; it is not given twice the cycles,
	// because every query stays in the LBServers' collectors and a
	// heap past half a gigabyte makes the GC's share of a cycle the
	// thing being measured.
	cyclesPerSecond = 8000
	// passCycles is how many cycles one set of servers serves before
	// the run swaps in fresh ones. An LBServer keeps a record of every
	// query, 80 000 cycles are 650 MB of them, and a closed loop on a
	// heap that size measures the GC and the host's page-fault path:
	// two sets of ten runs of the same code read 264 k and 389 k
	// queries/s on dataplane_sharded. At 10 000 cycles the heap stays
	// under 100 MB and every pass starts from the same state.
	passCycles      = 10_000
	lbDirectCycles  = 6250 // 100 k queries through the bare LBServer
	dataplaneShards = 4
	deferFraction   = 0.4
)

// dataplaneRig is the servers one closed-loop pass drives.
type dataplaneRig struct {
	env       *baselines.Env
	sample    *sample
	transport string
	shards    int // 0: one LBServer, no frontend
	// What serve builds.
	tp      cluster.Transport
	servers []*cluster.LBServer
	front   *cluster.ShardedLB // nil without shards
	conn    cluster.LBConn
}

func (r *dataplaneRig) close() {
	if r.front != nil {
		r.front.Close()
	}
	if r.tp != nil {
		r.tp.Close()
	}
	r.front, r.tp, r.servers, r.conn = nil, nil, nil, nil
}

// newLBServer is the closed loop's LBServer. SLO 1e9 keeps every query
// inside its deadline however long the run is. CoalesceWait must be
// tiny: a pull that finds fewer than Max queued otherwise blocks for
// the default 0.5 trace-seconds waiting for the batch to fill, which
// turns a 100 µs cycle into a 500 ms one as soon as a shard holds
// fewer than 16 of a cycle's queries.
func newLBServer(env *baselines.Env, clock *cluster.Clock, stream string) *cluster.LBServer {
	return cluster.NewLBServer(cluster.LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 1e9, CoalesceWait: 1e-9,
		LightMinExec: env.Light.Latency.Latency(1) + env.Scorer.PerImageLatency(),
		HeavyMinExec: env.Heavy.Latency.Latency(1),
		Clock:        clock, Seed: env.Seed, RNGStream: stream,
	})
}

// newDataplaneRig builds env, sample and servers.
func newDataplaneRig(seed uint64, transport string, shards int) (*dataplaneRig, error) {
	env, err := newEnv()
	if err != nil {
		return nil, err
	}
	smp, err := newSample(env, seed, deferFraction)
	if err != nil {
		return nil, err
	}
	r := &dataplaneRig{env: env, sample: smp, transport: transport, shards: shards}
	return r, r.serve()
}

// serve replaces the rig's servers with fresh ones: one LBServer behind
// the transport when shards is 0, else shards LBServers behind a
// ShardedLB, configured with the sample's threshold.
func (r *dataplaneRig) serve() (err error) {
	r.close()
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.tp, err = cluster.NewTransport(r.transport); err != nil {
		return err
	}
	clock := cluster.NewClock(1)
	if r.shards == 0 {
		lb := newLBServer(r.env, clock, "")
		r.servers = []*cluster.LBServer{lb}
		if r.conn, err = r.tp.ServeLB(lb); err != nil {
			return err
		}
	} else {
		conns := make([]cluster.LBConn, r.shards)
		for i := range conns {
			lb := newLBServer(r.env, clock, fmt.Sprintf("lb/%d", i))
			r.servers = append(r.servers, lb)
			if conns[i], err = r.tp.ServeLB(lb); err != nil {
				return err
			}
		}
		if r.front, err = cluster.NewShardedLB(cluster.ShardedLBConfig{Shards: conns, Clock: clock}); err != nil {
			return err
		}
		r.conn = r.front
	}
	if err = r.conn.Configure(context.Background(), cluster.ConfigureLBRequest{Threshold: r.sample.threshold}); err != nil {
		return fmt.Errorf("configure threshold: %w", err)
	}
	return nil
}

// cycleStats is what a closed loop observed, over all its passes.
type cycleStats struct {
	cycleMs    []float64 // wall time of each cycle
	calls      int       // conn calls made
	pulls      int
	emptyPulls int
	deferred   int
	errors     int
	problems   []string
	seen       []uint64 // bitmap of resolved IDs
}

func (c *cycleStats) problemf(format string, args ...interface{}) {
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// lbCalls is the four data-path calls of a cycle; the conn-driven and
// the direct-LBServer passes differ only in what is behind them.
type lbCalls struct {
	submit   func(cluster.SubmitRequest) error
	pull     func(cluster.PullRequest, *cluster.PullResponse) error
	complete func(cluster.CompleteRequest) error
	collect  func(cluster.ResultsRequest, *cluster.ResultsResponse) error
}

func connCalls(conn cluster.LBConn) lbCalls {
	ctx := context.Background()
	return lbCalls{
		submit: func(r cluster.SubmitRequest) error { return conn.SubmitBatch(ctx, r) },
		pull: func(r cluster.PullRequest, out *cluster.PullResponse) error {
			return cluster.PullIntoConn(ctx, conn, r, out)
		},
		complete: func(r cluster.CompleteRequest) error { return conn.Complete(ctx, r) },
		collect: func(r cluster.ResultsRequest, out *cluster.ResultsResponse) error {
			return cluster.PollResultsIntoConn(ctx, conn, r, out)
		},
	}
}

func serverCalls(lb *cluster.LBServer) lbCalls {
	ctx := context.Background()
	return lbCalls{
		submit: func(r cluster.SubmitRequest) error { lb.SubmitBatchReq(r); return nil },
		pull: func(r cluster.PullRequest, out *cluster.PullResponse) error {
			lb.PullInto(ctx, r, out)
			return nil
		},
		complete: func(r cluster.CompleteRequest) error { lb.Complete(r); return nil },
		collect: func(r cluster.ResultsRequest, out *cluster.ResultsResponse) error {
			lb.PollResultsInto(ctx, r, out)
			return nil
		},
	}
}

func newCycleStats(cycles int) *cycleStats {
	return &cycleStats{
		cycleMs: make([]float64, 0, cycles),
		seen:    make([]uint64, (cycles*cycleQueries+63)/64),
	}
}

// runCycles drives closed-loop cycles first..first+cycles-1 of
// cycleQueries queries each from one goroutine: submit, pull light
// until all are pulled and complete each pulled batch, pull and
// complete the deferred ones as heavy, then poll results until every
// query of the cycle resolved. Cycle c's queries have IDs 16c..16c+15;
// query id reuses the sample's item id mod sampleSize. It reports
// whether every cycle went through.
func runCycles(st *cycleStats, calls lbCalls, smp *sample, first, cycles int, tr *tracer, root int32) bool {
	queries := make([]cluster.QueryMsg, cycleQueries)
	items := make([]cluster.CompleteItem, 0, cycleQueries)
	var pulled cluster.PullResponse
	var results cluster.ResultsResponse

	// drain pulls role until want queries came back, completing each
	// pulled batch from the sample. Wait is 0: everything the cycle
	// needs is already queued when the previous call returned.
	drain := func(role string, from []cluster.CompleteItem, want int, parent int32, cycle int) bool {
		for got, empty := 0, 0; got < want; {
			sp := tr.begin(spPull, parent, cycle)
			err := calls.pull(cluster.PullRequest{Role: role, Max: cycleQueries}, &pulled)
			tr.end(sp)
			st.calls++
			st.pulls++
			if err != nil {
				st.errors++
				st.problemf("cycle %d: pull %s: %v", cycle, role, err)
				return false
			}
			if len(pulled.Queries) == 0 {
				st.emptyPulls++
				if empty++; empty > 1000 {
					st.problemf("cycle %d: %s queue stayed empty with %d of %d pulled", cycle, role, got, want)
					return false
				}
				continue
			}
			items = items[:0]
			for _, q := range pulled.Queries {
				it := from[q.ID%sampleSize]
				it.ID, it.Arrival = q.ID, q.Arrival
				items = append(items, it)
			}
			sp = tr.begin(spComplete, parent, cycle)
			err = calls.complete(cluster.CompleteRequest{Role: role, Items: items, LeaseDeadline: pulled.LeaseDeadline})
			tr.end(sp)
			st.calls++
			if err != nil {
				st.errors++
				st.problemf("cycle %d: complete %s: %v", cycle, role, err)
				return false
			}
			got += len(pulled.Queries)
		}
		return true
	}

	done := 0
	last := time.Now()
	for c := first; c < first+cycles; c++ {
		cyc := tr.begin(spCycle, root, c)
		base := c * cycleQueries
		heavy := 0
		for j := range queries {
			// Zero arrival: the LB stamps its own clock.
			queries[j] = cluster.QueryMsg{ID: base + j}
			if smp.deferred(base + j) {
				heavy++
			}
		}
		sp := tr.begin(spSubmit, cyc, c)
		err := calls.submit(cluster.SubmitRequest{Queries: queries})
		tr.end(sp)
		st.calls++
		if err != nil {
			st.errors++
			st.problemf("cycle %d: submit: %v", c, err)
			break
		}
		if !drain("light", smp.light, cycleQueries, cyc, c) || !drain("heavy", smp.heavy, heavy, cyc, c) {
			break
		}
		st.deferred += heavy
		ok := true
		for got := 0; got < cycleQueries && ok; {
			sp := tr.begin(spCollect, cyc, c)
			err := calls.collect(cluster.ResultsRequest{Max: cycleQueries, Wait: 10}, &results)
			tr.end(sp)
			st.calls++
			if err != nil || len(results.Results) == 0 {
				st.errors++
				st.problemf("cycle %d: collect got %d of %d: %v", c, got, cycleQueries, err)
				ok = false
				break
			}
			for i := range results.Results {
				res := &results.Results[i]
				k := res.ID
				if k < base || k >= base+cycleQueries {
					st.problemf("cycle %d: result for foreign id %d", c, res.ID)
					ok = false
				} else if st.seen[k/64]&(1<<(k%64)) != 0 {
					st.problemf("cycle %d: id %d resolved twice", c, res.ID)
					ok = false
				} else if res.Dropped || res.Deferred != smp.deferred(res.ID) {
					st.problemf("cycle %d: id %d dropped=%v deferred=%v, want served, deferred=%v",
						c, res.ID, res.Dropped, res.Deferred, smp.deferred(res.ID))
					ok = false
				} else {
					st.seen[k/64] |= 1 << (k % 64)
				}
			}
			got += len(results.Results)
		}
		tr.end(cyc)
		if !ok {
			break
		}
		now := time.Now()
		st.cycleMs = append(st.cycleMs, float64(now.Sub(last))/1e6)
		last = now
		done++
	}
	return done == cycles
}

// resolved counts the IDs the pass saw resolve exactly once.
func (c *cycleStats) resolved() int {
	n := 0
	for _, w := range c.seen {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

func runDataplane(cfg runCfg, transport string, shards int) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(closedLoopProcs))
	rig, setupS, err := repeatSetup(cfg.setupRepeats,
		func() (*dataplaneRig, error) { return newDataplaneRig(cfg.seed, transport, shards) },
		(*dataplaneRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	cycles := scaled(cfg.seconds, cyclesPerSecond, 50)
	total := cycles * cycleQueries

	// Per cycle: cycle, submit, a few collects, and up to a pull and a
	// complete per role and shard.
	tr, root := startTrace(cfg, cycles*(8+4*shards)+16)
	out := &outcome{attempted: total, metrics: map[string]float64{}, spans: tr}
	st := newCycleStats(cycles)
	served := stats.NewMomentAccumulator(rig.env.Space.Dim()) // features of every result, for FID
	runtime.GC()
	before := snapshotProc()
	for first := 0; first < cycles; first += passCycles {
		if first > 0 {
			if err := rig.serve(); err != nil {
				return nil, fmt.Errorf("fresh servers at cycle %d: %w", first, err)
			}
			runtime.GC()
		}
		ok := runCycles(st, connCalls(rig.conn), rig.sample, first, min(passCycles, cycles-first), tr, root)
		resolved := st.resolved()

		// The servers' own totals must match what the driver saw resolve
		// on them; their records go into the FID before they are dropped.
		lbStats, err := rig.conn.Stats(context.Background())
		if err != nil {
			out.failed++
			out.problemf("stats: %v", err)
		}
		records := 0
		for _, lb := range rig.servers {
			records += lb.Collector().Len()
			if acc := lb.Collector().ServedMoments(); acc != nil {
				if err := served.Merge(acc); err != nil {
					return nil, fmt.Errorf("merging served features: %w", err)
				}
			}
		}
		if err == nil && (lbStats.Completed != records || lbStats.Dropped != 0 || served.Count() != resolved) {
			out.problemf("cycles %d+: LBStats completed=%d dropped=%d, %d records, %d served so far, driver resolved %d so far",
				first, lbStats.Completed, lbStats.Dropped, records, served.Count(), resolved)
		}
		if terr := transportError(rig.tp); terr != nil {
			out.failed++
			out.problemf("transport: %v", terr)
		}
		if !ok {
			break
		}
	}
	tr.end(root)
	after := snapshotProc()
	out.problems = append(out.problems, st.problems...)
	resolved := st.resolved()
	out.failed += st.errors + total - resolved
	// json cannot carry the NaN an FID over too few images would be.
	if served.Count() < 2*served.Dim() {
		return nil, fmt.Errorf("FID needs at least %d results, the run resolved %d", 2*served.Dim(), served.Count())
	}
	fidScore, err := rig.sample.ref.ScoreMoments(served)
	if err != nil {
		return nil, err
	}

	m := out.metrics
	m["setup_s"] = setupS
	closedLoopMetrics(m, st.cycleMs, cycleQueries)
	m["slo_attainment"] = float64(resolved) / float64(total)
	m["fid"] = fidScore
	if !cfg.traced {
		return out, nil
	}

	cycleWall := tr.total(spCycle)
	covered := 0.0
	for _, l := range []struct {
		name spanName
		key  string
	}{{spSubmit, "submit"}, {spPull, "pull"}, {spComplete, "complete"}, {spCollect, "collect"}} {
		us := tr.durations(l.name, 1e3)
		m["cluster."+l.key+"_us_p50"] = quantile(us, 0.50)
		m["cluster."+l.key+"_us_p99"] = quantile(us, 0.99)
		share := tr.total(l.name) / cycleWall
		m["cluster."+l.key+"_share"] = share
		covered += share
	}
	m["bench.span_coverage"] = covered
	if covered < 0.9 {
		out.problemf("call spans cover %.3f of cycle wall time, want >= 0.9", covered)
	}
	m["cluster.calls_per_cycle"] = float64(st.calls) / float64(cycles)
	m["cluster.empty_pull_share"] = float64(st.emptyPulls) / float64(st.pulls)
	m["cluster.defer_share"] = float64(st.deferred) / float64(total)
	// Process totals over all passes: the fresh servers of each later
	// pass are in them, a few hundred allocations against a pass's million.
	m["cluster.allocs_per_query"] = float64(after.mallocs-before.mallocs) / float64(total)
	m["cluster.bytes_per_query"] = float64(after.bytes-before.bytes) / float64(total)
	processMetrics(m, before, after, total)

	// The layers under the conn, measured alone on fresh servers, and
	// the conn's own cost by difference from the traced cycle.
	lbCycleUs := lbDirect(rig, m)
	connCycleUs := quantile(tr.durations(spCycle, 1e3), 0.50)
	if shards > 0 {
		m["cluster.shard.self_us_p50"] = connCycleUs - lbCycleUs
	} else {
		codecUs, err := codecProbe(rig.sample, m)
		if err != nil {
			return nil, err
		}
		m["cluster.tcp.self_us_p50"] = connCycleUs - lbCycleUs - codecUs
	}
	return out, nil
}

// lbDirect runs the same cycle against a bare LBServer's methods and
// fills cluster.lb.*; it returns the median cycle in µs.
func lbDirect(rig *dataplaneRig, m map[string]float64) float64 {
	lb := newLBServer(rig.env, cluster.NewClock(1), "")
	lb.Configure(cluster.ConfigureLBRequest{Threshold: rig.sample.threshold})
	tr := newTracer(lbDirectCycles * 8)
	runCycles(newCycleStats(lbDirectCycles), serverCalls(lb), rig.sample, 0, lbDirectCycles, tr, -1)
	for _, l := range []struct {
		name spanName
		key  string
	}{{spCycle, "cycle"}, {spSubmit, "submit"}, {spPull, "pull"}, {spComplete, "complete"}, {spCollect, "collect"}} {
		m["cluster.lb."+l.key+"_us_p50"] = quantile(tr.durations(l.name, 1e3), 0.50)
	}
	return m["cluster.lb.cycle_us_p50"]
}

// codecProbe times CodecBinary on the messages one cycle puts on the
// wire — submit, pull response, complete, results — and returns
// encode + decode µs per cycle.
func codecProbe(smp *sample, m map[string]float64) (float64, error) {
	const rounds = 2000
	codec := cluster.CodecBinary
	submit := &cluster.SubmitRequest{Queries: make([]cluster.QueryMsg, cycleQueries)}
	pull := &cluster.PullResponse{Queries: make([]cluster.QueryMsg, cycleQueries)}
	complete := &cluster.CompleteRequest{Role: "light", Items: make([]cluster.CompleteItem, cycleQueries)}
	results := &cluster.ResultsResponse{Results: make([]cluster.QueryResponse, cycleQueries)}
	for j := 0; j < cycleQueries; j++ {
		it := smp.light[j]
		it.ID, it.Arrival = 1000+j, 12.25
		submit.Queries[j] = cluster.QueryMsg{ID: it.ID}
		pull.Queries[j] = cluster.QueryMsg{ID: it.ID, Arrival: it.Arrival}
		complete.Items[j] = it
		results.Results[j] = cluster.QueryResponse{
			ID: it.ID, Variant: it.Variant, Features: it.Features, Artifact: it.Artifact,
			Confidence: it.Confidence, Arrival: it.Arrival, Completion: 12.5,
		}
	}
	msgs := []interface{}{submit, pull, complete, results}
	into := []interface{}{&cluster.SubmitRequest{}, &cluster.PullResponse{}, &cluster.CompleteRequest{}, &cluster.ResultsResponse{}}
	wire := make([][]byte, len(msgs))
	bytes := 0
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i, msg := range msgs {
			b, err := codec.Marshal(msg)
			if err != nil {
				return 0, fmt.Errorf("codec probe: marshal %T: %w", msg, err)
			}
			wire[i] = b
		}
	}
	encodeUs := time.Since(start).Seconds() * 1e6 / rounds
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for i, b := range wire {
			if err := codec.Unmarshal(b, into[i]); err != nil {
				return 0, fmt.Errorf("codec probe: unmarshal %T: %w", into[i], err)
			}
		}
	}
	decodeUs := time.Since(start).Seconds() * 1e6 / rounds
	for _, b := range wire {
		bytes += len(b)
	}
	m["cluster.codec.encode_us_per_cycle"] = encodeUs
	m["cluster.codec.decode_us_per_cycle"] = decodeUs
	m["cluster.codec.wire_bytes_per_query"] = float64(bytes) / cycleQueries
	return encodeUs + decodeUs, nil
}

// transportError reports a fatal failure the transport surfaced on its
// error channel, if any; transient ones are what retries are for.
func transportError(tp cluster.Transport) error {
	ch := tp.Errors()
	if ch == nil {
		return nil
	}
	for {
		select {
		case err, ok := <-ch:
			if !ok {
				return nil
			}
			if err != nil && !cluster.IsTransientTransportError(err) {
				return err
			}
		default:
			return nil
		}
	}
}
