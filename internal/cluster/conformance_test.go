package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"diffserve/internal/loadbalancer"
)

// transportCase is one transport under conformance test.
type transportCase struct {
	name string
	mk   func() Transport
	// failsAfterClose: conn calls made after Transport.Close must
	// return an error (networked transports). The in-process
	// transport has nothing to tear down, so calls keep succeeding.
	failsAfterClose bool
}

// transportMatrix enumerates the transports the package ships:
// in-process, and framed TCP with the binary codec.
func transportMatrix() []transportCase {
	mkNamed := func(name string) func() Transport {
		return func() Transport {
			tp, err := NewTransport(name)
			if err != nil {
				panic(err)
			}
			return tp
		}
	}
	return []transportCase{
		{name: "inproc", mk: mkNamed(TransportInproc), failsAfterClose: false},
		{name: "tcp-binary", mk: mkNamed(TransportTCP), failsAfterClose: true},
	}
}

// TestTransportConformance runs the shared behavioral suite over
// every transport.
func TestTransportConformance(t *testing.T) {
	for _, tc := range transportMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			testTransportConformance(t, tc)
		})
	}
}

// testTransportConformance asserts the behavior every Transport must
// provide: full data-path round trips with field-exact payloads,
// worker control-plane round trips, batched submit + long-poll
// results, long-poll blocking and deadline semantics, prompt
// unblocking of long polls caught mid-shutdown, and well-defined
// behavior for calls after Close.
func testTransportConformance(t *testing.T, tc transportCase) {
	t.Run("query-roundtrip", func(t *testing.T) {
		tp := tc.mk()
		defer tp.Close()
		conn := serveTestLB(t, tp, newTestLB(0.001))

		err := conn.SubmitBatch(context.Background(), SubmitRequest{Queries: []QueryMsg{{ID: 7, Arrival: 0.001}}})
		if err != nil {
			t.Fatal(err)
		}
		pulled, err := pull(context.Background(), conn, PullRequest{Role: "light", Max: 1, Wait: 20})
		if err != nil || len(pulled.Queries) != 1 {
			t.Fatalf("pull = %+v, %v", pulled, err)
		}
		if pulled.Queries[0].ID != 7 || pulled.Queries[0].Arrival != 0.001 {
			t.Fatalf("pulled query = %+v", pulled.Queries[0])
		}
		err = conn.Complete(context.Background(), CompleteRequest{Role: "light", Items: []CompleteItem{{
			ID: 7, Arrival: 0.001, Variant: "sdturbo",
			Features: []float64{1, 2}, Artifact: 0.5, Confidence: 0.9,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		var res ResultsResponse
		if err := conn.PollResultsInto(context.Background(), ResultsRequest{Max: 4, Wait: 5000}, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Results) != 1 {
			t.Fatalf("results = %+v, want the one query", res.Results)
		}
		resp := res.Results[0]
		if resp.ID != 7 || resp.Dropped || resp.Variant != "sdturbo" ||
			len(resp.Features) != 2 || resp.Features[0] != 1 || resp.Features[1] != 2 ||
			resp.Artifact != 0.5 || resp.Confidence != 0.9 {
			t.Errorf("response = %+v", resp)
		}

		if err := conn.Configure(context.Background(), ConfigureLBRequest{Threshold: 0.5}); err != nil {
			t.Fatal(err)
		}
		stats, err := conn.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if stats.Completed != 1 || stats.Dropped != 0 {
			t.Errorf("stats = %+v", stats)
		}
	})

	t.Run("worker-conn", func(t *testing.T) {
		tp := tc.mk()
		defer tp.Close()
		ws := NewWorkerServer(WorkerConfig{ID: 4, Clock: NewClock(0.001), DisableLoadDelay: true})
		conn, err := tp.ServeWorker(ws)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Configure(context.Background(), ConfigureWorkerRequest{Role: "heavy", Batch: 6}); err != nil {
			t.Fatal(err)
		}
		st, err := conn.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.ID != 4 || st.Role != "heavy" || st.Batch != 6 {
			t.Errorf("stats = %+v", st)
		}
	})

	t.Run("batch-results", func(t *testing.T) {
		tp := tc.mk()
		defer tp.Close()
		conn := serveTestLB(t, tp, newTestLB(0.001))

		err := conn.SubmitBatch(context.Background(), SubmitRequest{Queries: []QueryMsg{
			{ID: 1, Arrival: 0.001}, {ID: 2, Arrival: 0.001},
		}})
		if err != nil {
			t.Fatal(err)
		}
		pulled, err := pull(context.Background(), conn, PullRequest{Role: "light", Max: 2, Wait: 5})
		if err != nil || len(pulled.Queries) != 2 {
			t.Fatalf("pull = %+v, %v", pulled, err)
		}
		items := make([]CompleteItem, len(pulled.Queries))
		for i, q := range pulled.Queries {
			items[i] = CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: "sdturbo", Confidence: 0.9}
		}
		if err := conn.Complete(context.Background(), CompleteRequest{Role: "light", Items: items}); err != nil {
			t.Fatal(err)
		}
		got := map[int]bool{}
		for len(got) < 2 {
			resp, err := pollResults(context.Background(), conn, ResultsRequest{Max: 10, Wait: 5})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) == 0 {
				t.Fatal("PollResults returned empty before all results arrived")
			}
			for _, r := range resp.Results {
				if r.Dropped || r.Variant != "sdturbo" {
					t.Errorf("result %+v", r)
				}
				got[r.ID] = true
			}
		}
		if !got[1] || !got[2] {
			t.Errorf("missing results: %v", got)
		}
	})

	t.Run("zero-wait-nonblocking", func(t *testing.T) {
		tp := tc.mk()
		defer tp.Close()
		lb := NewLBServer(LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: 50,
			LightMinExec: 0.1, HeavyMinExec: 1.78,
			Clock: NewClock(0.01), Seed: 1,
		})
		conn := serveTestLB(t, tp, lb)

		// Empty queue, empty results: Wait <= 0 must return
		// immediately on every transport — a zero wait is an explicit
		// non-blocking poll, never a zero-deadline sleep. The clock
		// runs at 0.01, so any accidental blocking path (e.g. a
		// long-poll slice) would cost hundreds of milliseconds.
		start := time.Now()
		resp, err := pull(context.Background(), conn, PullRequest{Role: "light", Max: 4})
		if err != nil || len(resp.Queries) != 0 {
			t.Fatalf("zero-wait pull on empty queue = %+v, %v", resp.Queries, err)
		}
		rres, err := pollResults(context.Background(), conn, ResultsRequest{Max: 4})
		if err != nil || len(rres.Results) != 0 {
			t.Fatalf("zero-wait results on empty buffer = %+v, %v", rres.Results, err)
		}
		if wall := time.Since(start); wall > 2*time.Second {
			t.Errorf("zero-wait polls took %v, want immediate", wall)
		}

		// With work queued and a result buffered, the same zero-wait
		// calls must return them without blocking.
		if err := conn.SubmitBatch(context.Background(), SubmitRequest{Queries: []QueryMsg{{ID: 3, Arrival: 0.001}}}); err != nil {
			t.Fatal(err)
		}
		resp, err = pull(context.Background(), conn, PullRequest{Role: "light", Max: 4})
		if err != nil || len(resp.Queries) != 1 || resp.Queries[0].ID != 3 {
			t.Fatalf("zero-wait pull with queued work = %+v, %v", resp.Queries, err)
		}
		err = conn.Complete(context.Background(), CompleteRequest{Role: "light", Items: []CompleteItem{
			{ID: 3, Arrival: 0.001, Variant: "sdturbo", Confidence: 0.9},
		}})
		if err != nil {
			t.Fatal(err)
		}
		rres, err = pollResults(context.Background(), conn, ResultsRequest{Max: 4})
		if err != nil || len(rres.Results) != 1 || rres.Results[0].ID != 3 {
			t.Fatalf("zero-wait results with buffered result = %+v, %v", rres.Results, err)
		}
	})

	t.Run("partial-batch-dispatch", func(t *testing.T) {
		// The dispatch rule both drivers share: a pull hands out whatever
		// is queued, up to its Max, with no coalesce window. One queued
		// query and a zero-wait pull for 16 must return that query, on a
		// server with default config whose light batch-1 time (1 s on a
		// real-time clock) would bound any such window well above the
		// call's own latency.
		tp := tc.mk()
		defer tp.Close()
		conn := serveTestLB(t, tp, NewLBServer(LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: 5,
			LightMinExec: 1, HeavyMinExec: 1.78,
			Clock: NewClock(1), Seed: 1,
		}))
		ctx := context.Background()
		if err := conn.SubmitBatch(ctx, SubmitRequest{Queries: []QueryMsg{{ID: 5}}}); err != nil {
			t.Fatal(err)
		}
		resp, err := pull(ctx, conn, PullRequest{Role: "light", Max: 16, Wait: 0})
		if err != nil || len(resp.Queries) != 1 || resp.Queries[0].ID != 5 {
			t.Fatalf("zero-wait pull for 16 with 1 queued = %+v, %v; want the queued query", resp.Queries, err)
		}
	})

	t.Run("queued-at", func(t *testing.T) {
		// A pull's QueuedAt is when its newest query joined the pool:
		// at or after every returned arrival and at or before the pull's
		// return, the maximum over a gather's legs, and for a deferral
		// pulled from heavy no earlier than the light Complete that
		// deferred it. Two queries join 5 trace-s apart; the stamp must
		// be the later join. The frontend asks its legs from a rotating
		// start, and its two rounds join the shards in opposite orders, so
		// a gather that kept its first or its last leg's stamp fails one.
		tp := tc.mk()
		defer tp.Close()
		ctx := context.Background()
		clock := NewClock(0.001)
		shards := make([]LBConn, 2)
		for i := range shards {
			shards[i] = serveTestLB(t, tp, NewLBServer(LBConfig{
				Mode: loadbalancer.ModeCascade, SLO: 1e9,
				LightMinExec: 0.1, HeavyMinExec: 1.78,
				Clock: clock, Seed: 1, RNGStream: fmt.Sprintf("lb/%d", i),
			}))
		}
		fe, err := NewShardedLB(ShardedLBConfig{Shards: shards, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		defer fe.Close()
		// onShard returns two query IDs from base up, the first owned by
		// shard 0, the second by shard 1.
		onShard := func(base int) (ids [2]int) {
			for i, id := 0, base; i < 2; id++ {
				if loadbalancer.ShardOf(id, 2) == i {
					ids[i], i = id, i+1
				}
			}
			return ids
		}
		// pullStamped pulls both queries of role and checks the stamp
		// against [notBefore, the pull's return] and their arrivals.
		pullStamped := func(conn LBConn, role string, notBefore float64) PullResponse {
			t.Helper()
			resp, err := pull(ctx, conn, PullRequest{Role: role, Max: 2, Wait: 50})
			returned := clock.Now()
			if err != nil || len(resp.Queries) != 2 {
				t.Fatalf("%s pull = %+v, %v; want both queries", role, resp.Queries, err)
			}
			if resp.QueuedAt < notBefore || resp.QueuedAt > returned {
				t.Errorf("%s pull: QueuedAt %.4f, want in [%.4f, %.4f] (the newest join .. the return)", role, resp.QueuedAt, notBefore, returned)
			}
			for _, q := range resp.Queries {
				if resp.QueuedAt < q.Arrival {
					t.Errorf("%s pull: QueuedAt %.4f before query %d's arrival %.4f", role, resp.QueuedAt, q.ID, q.Arrival)
				}
			}
			return resp
		}
		a, b := onShard(100), onShard(200)
		for _, round := range []struct {
			name string
			conn LBConn
			ids  [2]int // in join order
		}{
			{"direct", shards[0], [2]int{1, 2}},
			{"gather, shard 0 first", fe, a},
			{"gather, shard 1 first", fe, [2]int{b[1], b[0]}},
		} {
			t.Run(round.name, func(t *testing.T) {
				if err := round.conn.Configure(ctx, ConfigureLBRequest{Threshold: 0.5}); err != nil {
					t.Fatal(err)
				}
				var second float64
				for i, id := range round.ids {
					if i == 1 {
						clock.WaitUntil(ctx, clock.Now()+5, nil)
						second = clock.Now()
					}
					if err := round.conn.SubmitBatch(ctx, SubmitRequest{Queries: []QueryMsg{{ID: id, Arrival: clock.Now()}}}); err != nil {
						t.Fatal(err)
					}
				}
				light := pullStamped(round.conn, "light", second)
				completed := clock.Now()
				if err := completeAll(ctx, round.conn, 0, "light", light, 0.1); err != nil { // defers both
					t.Fatal(err)
				}
				heavy := pullStamped(round.conn, "heavy", completed)
				if err := completeAll(ctx, round.conn, 0, "heavy", heavy, 0.9); err != nil {
					t.Fatal(err)
				}
			})
		}
	})

	t.Run("posted-order", func(t *testing.T) {
		// SubmitBatch and Complete returning nil means applied before any
		// later call on the same conn is served, on every transport —
		// also the ones that return before the server has answered. A
		// zero-wait pull right behind a submit therefore sees the whole
		// batch, and a zero-wait poll right behind a complete every
		// result.
		tp := tc.mk()
		defer tp.Close()
		conn := serveTestLB(t, tp, NewLBServer(LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: 1e9,
			LightMinExec: 0.1, HeavyMinExec: 1.78,
			Clock: NewClock(1), Seed: 1,
		}))
		ctx := context.Background()
		const rounds, batch = 1000, 4
		qs := make([]QueryMsg, batch)
		var pulled PullResponse
		var results ResultsResponse
		for r := 0; r < rounds; r++ {
			for j := range qs {
				qs[j] = QueryMsg{ID: r*batch + j, Arrival: 0.001}
			}
			if err := conn.SubmitBatch(ctx, SubmitRequest{Queries: qs}); err != nil {
				t.Fatal(err)
			}
			if err := conn.PullInto(ctx, PullRequest{Role: "light", Max: batch}, &pulled); err != nil || len(pulled.Queries) != batch {
				t.Fatalf("round %d: zero-wait pull behind a submit returned %d of %d: %v", r, len(pulled.Queries), batch, err)
			}
			if err := completeAll(ctx, conn, 0, "light", pulled, 0.9); err != nil {
				t.Fatal(err)
			}
			if err := conn.PollResultsInto(ctx, ResultsRequest{Max: batch}, &results); err != nil || len(results.Results) != batch {
				t.Fatalf("round %d: zero-wait poll behind a complete returned %d of %d: %v", r, len(results.Results), batch, err)
			}
			for j, res := range results.Results {
				if res.ID != r*batch+j || res.Dropped {
					t.Fatalf("round %d: result %d = %+v", r, j, res)
				}
			}
		}
	})

	t.Run("sharded-topology", func(t *testing.T) {
		// A 2-shard tier over this transport: the frontend must
		// partition by loadbalancer.ShardOf identically to every other
		// transport, and merge both shards' result streams.
		tp := tc.mk()
		defer tp.Close()
		clock := NewClock(0.001)
		const shards, queries = 2, 16
		lbs := make([]*LBServer, shards)
		conns := make([]LBConn, shards)
		for i := range lbs {
			lbs[i] = NewLBServer(LBConfig{
				Mode: loadbalancer.ModeCascade, SLO: 1e9,
				LightMinExec: 0.1, HeavyMinExec: 1.78,
				Clock: clock, Seed: 1, RNGStream: fmt.Sprintf("lb/%d", i),
			})
			conns[i] = serveTestLB(t, tp, lbs[i])
		}
		fe, err := NewShardedLB(ShardedLBConfig{Shards: conns, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		defer fe.Close()

		qs := make([]QueryMsg, queries)
		for i := range qs {
			qs[i] = QueryMsg{ID: i, Arrival: 0.001}
		}
		if err := fe.SubmitBatch(context.Background(), SubmitRequest{Queries: qs}); err != nil {
			t.Fatal(err)
		}
		// Shard-pinned pulls through the transport conns: each query
		// must surface on exactly the shard ShardOf names.
		for s, conn := range conns {
			for {
				resp, err := pull(context.Background(), conn, PullRequest{Role: "light", Max: 8})
				if err != nil {
					t.Fatal(err)
				}
				if len(resp.Queries) == 0 {
					break
				}
				items := make([]CompleteItem, len(resp.Queries))
				for i, q := range resp.Queries {
					if want := loadbalancer.ShardOf(q.ID, shards); want != s {
						t.Errorf("query %d surfaced on shard %d, ShardOf says %d", q.ID, s, want)
					}
					items[i] = CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: "sdturbo", Confidence: 0.9}
				}
				if err := conn.Complete(context.Background(), CompleteRequest{Role: "light", Items: items}); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := map[int]bool{}
		deadline := time.Now().Add(10 * time.Second)
		for len(got) < queries && time.Now().Before(deadline) {
			resp, err := pollResults(context.Background(), fe, ResultsRequest{Max: 32, Wait: 5})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range resp.Results {
				if got[r.ID] || r.Dropped {
					t.Errorf("bad merged result %+v (dup=%v)", r, got[r.ID])
				}
				got[r.ID] = true
			}
		}
		if len(got) != queries {
			t.Fatalf("merged %d of %d results", len(got), queries)
		}
		st, err := fe.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed != queries || st.Dropped != 0 {
			t.Errorf("merged stats = %+v", st)
		}
	})

	t.Run("gather-pull", func(t *testing.T) {
		// One frontend pull gathers a batch from however many shards
		// hold it, over any transport: up to Max queries, no more, under
		// the earliest lease deadline any shard granted. Shard i leases
		// for 10*(i+1) trace seconds, so the earliest is shard 0's.
		tp := tc.mk()
		defer tp.Close()
		clock := NewClock(0.001)
		const shards, perShard, queries = 4, 4, 16
		conns := make([]LBConn, shards)
		for i := range conns {
			conns[i] = serveTestLB(t, tp, NewLBServer(LBConfig{
				Mode: loadbalancer.ModeCascade, SLO: 1e9,
				LightMinExec: 0.1, HeavyMinExec: 1.78,
				Clock: clock, Seed: 1, RNGStream: fmt.Sprintf("lb/%d", i),
				LeaseDuration: 10 * float64(i+1),
			}))
		}
		fe, err := NewShardedLB(ShardedLBConfig{Shards: conns, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		defer fe.Close()
		ctx := context.Background()

		// Nothing queued: a zero-wait pull asks all four shards and
		// comes back empty without parking on any of them.
		start := time.Now()
		resp, err := pull(ctx, fe, PullRequest{Role: "light", Max: queries})
		if err != nil || len(resp.Queries) != 0 {
			t.Fatalf("zero-wait pull on empty shards = %+v, %v", resp.Queries, err)
		}
		if wall := time.Since(start); wall > 2*time.Second {
			t.Errorf("zero-wait pull over empty shards took %v, want immediate", wall)
		}

		ids := idsPerShard(shards, perShard, 0)
		if err := fe.SubmitBatch(ctx, SubmitRequest{Queries: queriesFor(ids)}); err != nil {
			t.Fatal(err)
		}
		before := clock.Now()
		resp, err = pull(ctx, fe, PullRequest{WorkerID: 1, Role: "light", Max: queries})
		after := clock.Now()
		if err != nil || len(resp.Queries) != queries {
			t.Fatalf("Max:%d pull gathered %d queries: %v", queries, len(resp.Queries), err)
		}
		got := map[int]bool{}
		for _, q := range resp.Queries {
			got[q.ID] = true
		}
		for _, id := range ids {
			if !got[id] {
				t.Errorf("query %d missing from the gathered batch", id)
			}
		}
		if d := resp.LeaseDeadline; d < before+10 || d > after+10 {
			t.Errorf("lease deadline %.3f, want shard 0's (granted in [%.3f, %.3f] + 10)", d, before, after)
		}
		if err := completeAll(ctx, fe, 1, "light", resp, 0.9); err != nil {
			t.Fatal(err)
		}

		// A smaller Max is filled exactly and the rest stays queued.
		if err := fe.SubmitBatch(ctx, SubmitRequest{Queries: queriesFor(idsPerShard(shards, perShard, 1000))}); err != nil {
			t.Fatal(err)
		}
		resp, err = pull(ctx, fe, PullRequest{WorkerID: 1, Role: "light", Max: 5})
		if err != nil || len(resp.Queries) != 5 {
			t.Fatalf("Max:5 pull returned %d queries: %v", len(resp.Queries), err)
		}
		st, err := fe.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.LightQueueLen != queries-5 {
			t.Errorf("%d queries left queued after a Max:5 pull, want %d", st.LightQueueLen, queries-5)
		}
	})

	t.Run("lease-reclaim-exactly-once", func(t *testing.T) {
		// A pulled batch is leased, not gone: when the puller dies
		// without completing, the expiry sweep reclaims the queries —
		// arrival stamps intact — and a second worker's pull receives
		// them. Whichever completion lands first resolves each query
		// and later reports are no-ops, with the lease counters
		// surfacing it all through Stats on every transport × codec.
		tp := tc.mk()
		defer tp.Close()
		clock := NewClock(0.001)
		lb := NewLBServer(LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: 1e9,
			LightMinExec: 0.1, HeavyMinExec: 1.78,
			Clock: clock, Seed: 1,
			LeaseDuration: 0.5,
		})
		conn := serveTestLB(t, tp, lb)
		ctx := context.Background()

		err := conn.SubmitBatch(ctx, SubmitRequest{Queries: []QueryMsg{
			{ID: 1, Arrival: 0.25}, {ID: 2, Arrival: 0.25},
		}})
		if err != nil {
			t.Fatal(err)
		}
		pullA, err := pull(ctx, conn, PullRequest{WorkerID: 1, Role: "light", Max: 8, Wait: 5})
		if err != nil || len(pullA.Queries) != 2 {
			t.Fatalf("first pull = %+v, %v", pullA, err)
		}
		if pullA.LeaseDeadline <= 0 {
			t.Fatalf("pull response carries no lease deadline: %+v", pullA)
		}
		// Worker 1 goes silent. Past the hard deadline (grant + 4x
		// the lease duration) worker 2's pull sweeps, reclaims, and
		// receives the re-queued batch.
		clock.WaitUntil(ctx, clock.Now()+3, nil)
		pullB, err := pull(ctx, conn, PullRequest{WorkerID: 2, Role: "light", Max: 8, Wait: 5})
		if err != nil || len(pullB.Queries) != 2 {
			t.Fatalf("reclaim pull = %+v, %v", pullB, err)
		}
		for _, q := range pullB.Queries {
			if q.Arrival != 0.25 {
				t.Errorf("reclaimed query lost its arrival stamp: %+v", q)
			}
		}
		// The zombie (worker 1) reports first: its queries are still
		// live, so its completion wins; worker 2's later report must
		// be a no-op counted as late.
		complete := func(workerID int, pull PullResponse) error {
			req := CompleteRequest{WorkerID: workerID, Role: "light", LeaseDeadline: pull.LeaseDeadline}
			for _, q := range pull.Queries {
				req.Items = append(req.Items, CompleteItem{
					ID: q.ID, Arrival: q.Arrival, Variant: "sdturbo", Confidence: 0.9,
				})
			}
			return conn.Complete(ctx, req)
		}
		if err := complete(1, pullA); err != nil {
			t.Fatal(err)
		}
		if err := complete(2, pullB); err != nil {
			t.Fatal(err)
		}
		got := map[int]bool{}
		for len(got) < 2 {
			res, err := pollResults(ctx, conn, ResultsRequest{Max: 8, Wait: 5})
			if err != nil || len(res.Results) == 0 {
				t.Fatalf("reclaimed results missing: %v (got %v)", err, got)
			}
			for _, r := range res.Results {
				if got[r.ID] {
					t.Fatalf("result %d delivered twice", r.ID)
				}
				got[r.ID] = true
			}
		}
		st, err := conn.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed != 2 || st.Dropped != 0 {
			t.Errorf("stats = %d completed / %d dropped, want 2 / 0", st.Completed, st.Dropped)
		}
		if st.Reclaims != 2 {
			t.Errorf("stats report %d reclaims, want 2", st.Reclaims)
		}
		if st.LateCompletions != 2 {
			t.Errorf("stats report %d late completions, want 2", st.LateCompletions)
		}
		if st.InFlight != 0 {
			t.Errorf("stats report %d leases in flight after resolution", st.InFlight)
		}
	})

	t.Run("buffer-reuse-no-alias", func(t *testing.T) {
		// The reuse discipline's user-visible guarantee: a delivered
		// result belongs to the caller alone. Scribbling over the
		// buffers the caller handed in (completion features), then
		// churning more traffic through the conn — recycling every
		// frame, pooled decode target, correlation slot, and dequeue
		// scratch the first query used, including one lease-reclaim
		// re-submit round — must not change a result already delivered
		// into a different response struct.
		tp := tc.mk()
		defer tp.Close()
		clock := NewClock(0.001)
		lb := NewLBServer(LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: 1e9,
			LightMinExec: 0.1, HeavyMinExec: 1.78,
			Clock: clock, Seed: 1,
			LeaseDuration: 0.5,
		})
		conn := serveTestLB(t, tp, lb)
		ctx := context.Background()

		var pulled PullResponse
		resolve := func(id, workerID int, feats []float64) {
			t.Helper()
			if err := conn.SubmitBatch(ctx, SubmitRequest{Queries: []QueryMsg{{ID: id, Arrival: 0.25}}}); err != nil {
				t.Fatal(err)
			}
			err := conn.PullInto(ctx, PullRequest{WorkerID: workerID, Role: "light", Max: 8, Wait: 5}, &pulled)
			if err != nil || len(pulled.Queries) != 1 {
				t.Fatalf("pull = %+v, %v", pulled, err)
			}
			err = conn.Complete(ctx, CompleteRequest{
				WorkerID: workerID, Role: "light", LeaseDeadline: pulled.LeaseDeadline,
				Items: []CompleteItem{{
					ID: id, Arrival: 0.25, Variant: "sdturbo", Features: feats, Confidence: 0.9,
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
		}

		// Resolve query 1 with features the caller scribbles over the
		// moment Complete returns: the server must hold its own copy.
		featsA := []float64{10, 20, 30, 40}
		resolve(1, 1, featsA)
		for i := range featsA {
			featsA[i] = -999
		}

		var delivered ResultsResponse
		err := conn.PollResultsInto(ctx, ResultsRequest{Max: 8, Wait: 5}, &delivered)
		if err != nil || len(delivered.Results) != 1 {
			t.Fatalf("poll = %+v, %v", delivered, err)
		}
		want := []float64{10, 20, 30, 40}
		checkDelivered := func(r QueryResponse) {
			t.Helper()
			if r.ID != 1 || len(r.Features) != len(want) {
				t.Fatalf("delivered result = %+v", r)
			}
			for i := range want {
				if r.Features[i] != want[i] {
					t.Fatalf("delivered features corrupted by buffer reuse: %v", r.Features)
				}
			}
		}
		checkDelivered(delivered.Results[0])

		// Churn: distinct feature values cycle through the same pooled
		// buffers, polled into a DIFFERENT response struct.
		churnFeats := []float64{-1, -2, -3, -4}
		for id := 2; id <= 5; id++ {
			resolve(id, 1, churnFeats)
		}
		var churn ResultsResponse
		got := 0
		for got < 4 {
			if err := conn.PollResultsInto(ctx, ResultsRequest{Max: 8, Wait: 5}, &churn); err != nil || len(churn.Results) == 0 {
				t.Fatalf("churn poll = %v", err)
			}
			got += len(churn.Results)
		}

		// One lease-reclaim round: worker 1 pulls and goes silent, the
		// sweep re-queues the batch through the pooled dequeue scratch,
		// worker 2 re-pulls it, and both completions land.
		if err := conn.SubmitBatch(ctx, SubmitRequest{Queries: []QueryMsg{{ID: 6, Arrival: 0.25}}}); err != nil {
			t.Fatal(err)
		}
		pullA, err := pull(ctx, conn, PullRequest{WorkerID: 1, Role: "light", Max: 8, Wait: 5})
		if err != nil || len(pullA.Queries) != 1 {
			t.Fatalf("lease pull = %+v, %v", pullA, err)
		}
		clock.WaitUntil(ctx, clock.Now()+3, nil)
		err = conn.PullInto(ctx, PullRequest{WorkerID: 2, Role: "light", Max: 8, Wait: 5}, &pulled)
		if err != nil || len(pulled.Queries) != 1 {
			t.Fatalf("reclaim pull = %+v, %v", pulled, err)
		}
		complete := func(workerID int, lease float64) error {
			return conn.Complete(ctx, CompleteRequest{
				WorkerID: workerID, Role: "light", LeaseDeadline: lease,
				Items: []CompleteItem{{
					ID: 6, Arrival: 0.25, Variant: "sdturbo", Features: churnFeats, Confidence: 0.9,
				}},
			})
		}
		if err := complete(1, pullA.LeaseDeadline); err != nil {
			t.Fatal(err)
		}
		if err := complete(2, pulled.LeaseDeadline); err != nil {
			t.Fatal(err)
		}
		for got = 0; got < 1; {
			if err := conn.PollResultsInto(ctx, ResultsRequest{Max: 8, Wait: 5}, &churn); err != nil || len(churn.Results) == 0 {
				t.Fatalf("reclaim result missing: %v", err)
			}
			got += len(churn.Results)
		}

		// The result delivered before all that churn is untouched.
		checkDelivered(delivered.Results[0])
	})

	t.Run("sever-is-transient", func(t *testing.T) {
		// A call over a FaultTransport-severed wire fails on every
		// transport with a transient classified error, and the fault
		// surfaces on Errors() classified the same way: the harness's
		// abort-on-fatal watcher must not kill a run over it.
		clock := NewClock(0.001)
		ftp := NewFaultTransport(tc.mk(), FaultPlan{Clock: clock})
		defer ftp.Close()
		conn := serveTestLB(t, ftp, newTestLB(0.001)) // conn index 0
		ftp.Partition(0, 0, 1e18, FaultSever)
		if err := conn.SubmitBatch(context.Background(), SubmitRequest{Queries: []QueryMsg{{ID: 9}}}); err == nil {
			t.Fatal("submit over a severed conn succeeded")
		} else if !IsTransientTransportError(err) {
			t.Fatalf("injected sever classified fatal: %v", err)
		}
		select {
		case err := <-ftp.Errors():
			if !IsTransientTransportError(err) {
				t.Fatalf("Errors() event classified fatal: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("injected fault never surfaced on Errors()")
		}
	})

	t.Run("pull-longpoll-blocks-until-work", func(t *testing.T) {
		tp := tc.mk()
		defer tp.Close()
		lb := newTestLB(0.01)
		conn := serveTestLB(t, tp, lb)
		go func() {
			time.Sleep(30 * time.Millisecond)
			lb.SubmitBatchReq(SubmitRequest{Queries: []QueryMsg{{ID: 11, Arrival: 0.001}}})
		}()
		start := time.Now()
		// Wait 10 trace seconds = 100ms wall; work arrives at ~30ms.
		resp, err := pull(context.Background(), conn, PullRequest{Role: "light", Max: 1, Wait: 10})
		if err != nil || len(resp.Queries) != 1 || resp.Queries[0].ID != 11 {
			t.Fatalf("long poll returned %+v, %v", resp.Queries, err)
		}
		if wall := time.Since(start); wall < 20*time.Millisecond || wall > 3*time.Second {
			t.Errorf("long poll returned after %v, want ~30ms", wall)
		}
		lb.DrainRemaining()
	})

	t.Run("pull-longpoll-honors-deadline", func(t *testing.T) {
		tp := tc.mk()
		defer tp.Close()
		conn := serveTestLB(t, tp, newTestLB(0.01))
		start := time.Now()
		resp, err := pull(context.Background(), conn, PullRequest{Role: "light", Max: 1, Wait: 3})
		if err != nil || len(resp.Queries) != 0 {
			t.Fatalf("empty queue long poll returned %+v, %v", resp.Queries, err)
		}
		// 3 trace seconds at 0.01 = 30ms wall.
		if wall := time.Since(start); wall < 20*time.Millisecond || wall > 3*time.Second {
			t.Errorf("long poll deadline after %v, want ~30ms", wall)
		}
	})

	t.Run("shutdown-while-longpolling", func(t *testing.T) {
		tp := tc.mk()
		conn := serveTestLB(t, tp, newTestLB(0.01))

		var wg sync.WaitGroup
		returned := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			// 120 trace seconds = 1.2s of wall time at this timescale;
			// a shutdown-aware transport unblocks the poll sooner, and
			// none may hang past the poll's own deadline.
			resp, err := pull(context.Background(), conn, PullRequest{Role: "light", Max: 1, Wait: 120})
			if err == nil && len(resp.Queries) != 0 {
				t.Errorf("shutdown long poll returned work: %+v", resp.Queries)
			}
			close(returned)
		}()
		time.Sleep(50 * time.Millisecond) // let the poll reach the server
		tp.Close()
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatal("long poll still blocked 10s after transport close")
		}
		wg.Wait()
	})

	t.Run("submit-after-close", func(t *testing.T) {
		tp := tc.mk()
		conn := serveTestLB(t, tp, newTestLB(0.001))
		tp.Close()

		done := make(chan error, 1)
		go func() {
			done <- conn.SubmitBatch(context.Background(), SubmitRequest{Queries: []QueryMsg{{ID: 1, Arrival: 0.001}}})
		}()
		select {
		case err := <-done:
			if tc.failsAfterClose && err == nil {
				t.Error("submit after close succeeded on a networked transport")
			}
			if !tc.failsAfterClose && err != nil {
				t.Errorf("submit after close failed on the in-process transport: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("submit after close hung")
		}
		if _, err := conn.Stats(context.Background()); tc.failsAfterClose && err == nil {
			t.Error("stats after close succeeded on a networked transport")
		}
	})
}

// serveTestLB registers lb on the transport and fails the test on
// error.
func serveTestLB(t *testing.T, tp Transport, lb *LBServer) LBConn {
	t.Helper()
	conn, err := tp.ServeLB(lb)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}
