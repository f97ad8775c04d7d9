package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"diffserve/internal/allocator"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/metrics"
	"diffserve/internal/trace"
)

// closeServers kills only the server side — listeners and accepted
// connections — leaving the clients to discover the loss, redial, and
// exhaust their retries, to inject a mid-run failure.
func (t *tcpTransport) closeServers() {
	t.mu.Lock()
	srvs := t.srvs
	t.mu.Unlock()
	for _, s := range srvs {
		s.Close()
	}
}

// TestTCPFrameRoundTrip pins the frame encoding: appendFrame output
// must decode to the same header and payload.
func TestTCPFrameRoundTrip(t *testing.T) {
	msg := &PullRequest{WorkerID: 3, Role: "light", Max: 8, Wait: 0.25}
	b, err := appendFrame(nil, frameRequest, methodPull, 42, msg, "")
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != frameRequest || f.method != methodPull || f.id != 42 {
		t.Errorf("header = %+v", f)
	}
	var out PullRequest
	if err := CodecBinary.Unmarshal(f.payload, &out); err != nil {
		t.Fatal(err)
	}
	if out != *msg {
		t.Errorf("payload = %+v, want %+v", out, *msg)
	}

	// Error frames carry the error text as their payload.
	b, err = appendFrame(nil, frameError, methodPull, 7, nil, "boom")
	if err != nil {
		t.Fatal(err)
	}
	f, _, err = readFrame(bufio.NewReader(bytes.NewReader(b)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != frameError || string(f.payload) != "boom" {
		t.Errorf("error frame = %+v payload %q", f, f.payload)
	}
}

// TestTCPFrameLayout pins the bytes of a request frame and an error
// frame: the big-endian body length, kind, method and the 8-byte
// request id, then the binary payload or the error text. A frame
// encoded with id 0 and patched by setFrameID, as a client sends it,
// is the same frame.
func TestTCPFrameLayout(t *testing.T) {
	msg := &PullRequest{WorkerID: 3, Role: "light", Max: 8, Wait: 0.25}
	payload, err := CodecBinary.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	const id = 0x0102030405060708
	for _, c := range []struct {
		kind    byte
		msg     interface{}
		errText string
		payload []byte
	}{{frameRequest, msg, "", payload}, {frameError, nil, "boom", []byte("boom")}} {
		want := binary.BigEndian.AppendUint32(nil, uint32(10+len(c.payload)))
		want = append(want, c.kind, methodPull, 1, 2, 3, 4, 5, 6, 7, 8)
		want = append(want, c.payload...)
		got, err := appendFrame(nil, c.kind, methodPull, id, c.msg, c.errText)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("kind %d frame = %x, %v; want %x", c.kind, got, err, want)
		}
		patched, err := appendFrame(nil, c.kind, methodPull, 0, c.msg, c.errText)
		if err != nil {
			t.Fatal(err)
		}
		if setFrameID(patched, id); !bytes.Equal(patched, want) {
			t.Errorf("kind %d frame with its id patched in = %x, want %x", c.kind, patched, want)
		}
	}
}

// TestTCPFrameRejectsCorruptHeaders exercises the decode guards:
// oversized and undersized declared lengths, and invalid kind and
// method bytes must all fail without panicking.
func TestTCPFrameRejectsCorruptHeaders(t *testing.T) {
	valid, err := appendFrame(nil, frameRequest, methodPull, 1, &PullRequest{}, "")
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mut(b)
		return b
	}
	cases := map[string][]byte{
		"oversized-length":  corrupt(func(b []byte) { b[0], b[1], b[2], b[3] = 0xff, 0xff, 0xff, 0xff }),
		"undersized-length": corrupt(func(b []byte) { b[0], b[1], b[2], b[3] = 0, 0, 0, frameHeaderLen-1 }),
		"bad-kind":          corrupt(func(b []byte) { b[4] = 99 }),
		"bad-method":        corrupt(func(b []byte) { b[5] = 0 }),
		"truncated":         valid[:len(valid)-2],
	}
	for name, data := range cases {
		if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil); err == nil {
			t.Errorf("%s: corrupted frame decoded without error", name)
		}
	}
}

// TestTCPRefusesRetiredMethod pins what a tcp peer sees when a request
// frame names a retired method (the blocking submit, the membership
// read): an error frame each — nothing is applied, nothing is taken
// from a message pool for them (the suite runs this under -tags
// poolpoison too), and the connection serves the next frame as if they
// had never arrived.
func TestTCPRefusesRetiredMethod(t *testing.T) {
	lb := newTestLB(0.001)
	srv, err := ServeLBTCP("127.0.0.1:0", lb)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The retired method, payload as its clients encoded it.
	query, err := appendFrame(nil, frameRequest, methodQueryRetired, 1, &QueryMsg{ID: 2, Arrival: 0.001}, "")
	if err != nil {
		t.Fatal(err)
	}
	membership, err := appendFrame(nil, frameRequest, methodMembershipRetired, 2, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := appendFrame(nil, frameRequest, methodLBStats, 3, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for _, f := range [][]byte{query, membership, stats} {
		seg = append(seg, f...)
	}
	if _, err := conn.Write(seg); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for _, want := range []struct {
		id   uint64
		text string
	}{{1, "method 1 not supported"}, {2, "method 10 not supported"}} {
		f, _, err := readFrame(br, nil)
		if err != nil {
			t.Fatalf("frame %d: connection lost instead of an error frame: %v", want.id, err)
		}
		if f.kind != frameError || f.id != want.id || string(f.payload) != want.text {
			t.Errorf("frame %d answered with kind %d id %d %q, want an error frame saying %q",
				want.id, f.kind, f.id, f.payload, want.text)
		}
	}
	f, _, err := readFrame(br, nil)
	if err != nil || f.kind != frameResponse || f.id != 3 {
		t.Fatalf("frame after the refusals = %+v, %v; want the Stats response on the same connection", f, err)
	}
	var st LBStats
	if err := CodecBinary.Unmarshal(f.payload, &st); err != nil {
		t.Fatal(err)
	}
	if st.ArrivalsSinceTick != 0 || st.LightQueueLen != 0 {
		t.Errorf("a refused frame was applied: stats = %+v", st)
	}
}

// TestTCPConcurrentCalls hammers one multiplexed connection from many
// goroutines and checks every response correlates to its own request.
func TestTCPConcurrentCalls(t *testing.T) {
	lb := newTestLB(0.001)
	srv, err := ServeLBTCP("127.0.0.1:0", lb)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := NewTCPLBConn(srv.Addr())
	defer conn.(tcpLBConn).c.Close()

	const calls = 64
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mix blocking long polls with instant control calls so
			// responses interleave out of request order.
			if i%4 == 0 {
				resp, err := pull(context.Background(), conn, PullRequest{Role: "light", Max: 1, Wait: 2})
				if err != nil {
					errs <- err
				} else if len(resp.Queries) != 0 {
					t.Errorf("unexpected work: %+v", resp.Queries)
				}
				return
			}
			if _, err := conn.Stats(context.Background()); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTCPClientRedialsAfterRestart kills the server and restarts one
// on the same address: the next call on the same conn must redial
// transparently.
func TestTCPClientRedialsAfterRestart(t *testing.T) {
	lb := newTestLB(0.001)
	srv, err := ServeLBTCP("127.0.0.1:0", lb)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	conn := NewTCPLBConn(addr)
	defer conn.(tcpLBConn).c.Close()
	if _, err := conn.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	srv2, err := ServeLBTCP(addr, lb)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer srv2.Close()

	// The first call may observe the dead connection; the redial (with
	// retries) must succeed well within the dial budget.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = conn.Stats(context.Background()); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("conn never recovered after server restart: %v", err)
		}
	}
}

// TestWorkerResumesAfterLBRestart runs a WorkerServer on a DialLB conn,
// closes the LBServer behind that address and starts a new one on the
// same address. With no redial hook the worker must keep serving: the
// conn redials on the worker's next pull, and every query submitted to
// the new server completes.
func TestWorkerResumesAfterLBRestart(t *testing.T) {
	f := newFixtures(t)
	clock := NewClock(0.001)
	newLB := func() *LBServer {
		return NewLBServer(LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: 1e9,
			LightMinExec: 0.1, HeavyMinExec: 1.78,
			Clock: clock, Seed: 1,
		})
	}
	// serve submits n queries numbered from first to lb and waits until
	// lb has completed all of them (the threshold is 0, so nothing
	// defers to the heavy pool no worker pulls from).
	serve := func(lb *LBServer, first, n int) {
		t.Helper()
		qs := make([]QueryMsg, n)
		for i := range qs {
			qs[i] = QueryMsg{ID: first + i, Arrival: clock.Now()}
		}
		lb.SubmitBatchReq(SubmitRequest{Queries: qs})
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := lb.Stats()
			if st.Completed == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d queries completed, %d dropped", st.Completed, n, st.Dropped)
			}
			time.Sleep(time.Millisecond)
		}
	}

	lb := newLB()
	srv, err := ServeLBTCP("127.0.0.1:0", lb)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	conn, err := DialLB(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.(tcpLBConn).c.Close()
	ws := NewWorkerServer(WorkerConfig{
		LB: conn, Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
		Clock: clock, DisableLoadDelay: true,
	})
	ws.Configure(ConfigureWorkerRequest{Role: "light", Batch: 4})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); ws.Loop(ctx) }()
	defer func() { cancel(); <-done }()

	serve(lb, 0, 8)
	srv.Close()
	lb2 := newLB()
	srv2, err := ServeLBTCP(addr, lb2)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer srv2.Close()
	serve(lb2, 100, 8)
}

// waitConnLoss waits, with a bound, until conn has counted at least
// want lost connections (see lossCounter).
func waitConnLoss(t *testing.T, conn interface{}, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for connLosses(conn) < want {
		if time.Now().After(deadline) {
			t.Fatalf("conn counted %d lost connections in 10 s, want %d", connLosses(conn), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestControllerReconfiguresRestartedWorker restarts a worker behind
// the same address; the new process starts idle. Once the controller's
// tcp conn has seen the dropped connection, the very next apply of the
// unchanged plan must give the new process its role back.
func TestControllerReconfiguresRestartedWorker(t *testing.T) {
	f := newFixtures(t)
	clock := NewClock(0.001)
	newWorker := func() *WorkerServer {
		return NewWorkerServer(WorkerConfig{
			LB: &blindStatsConn{}, Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
			Clock: clock, DisableLoadDelay: true,
		})
	}
	ws := newWorker()
	srv, err := ServeWorkerTCP("127.0.0.1:0", ws)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	conn, err := DialWorker(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.(tcpWorkerConn).c.Close()
	loop := NewControllerLoop(ControllerConfig{
		Ctrl: f.controller(t, 1, 5), LB: &blindStatsConn{}, Workers: []WorkerConn{conn},
		Mode: loadbalancer.ModeCascade, Clock: clock,
		Logf: func(format string, args ...interface{}) { t.Errorf("controller: "+format, args...) },
	})
	ctx := context.Background()
	plan := allocator.Plan{LightWorkers: 1, LightBatch: 4}
	loop.Apply(ctx, plan)
	if role := ws.Stats().Role; role != "light" {
		t.Fatalf("worker holds role %q after the first apply, want light", role)
	}

	srv.Close()
	ws2 := newWorker()
	srv2, err := ServeWorkerTCP(addr, ws2)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer srv2.Close()
	waitConnLoss(t, conn, 1)
	loop.Apply(ctx, plan)
	if role := ws2.Stats().Role; role != "light" {
		t.Fatalf("restarted worker holds role %q after the next apply, want light", role)
	}
	conn.(tcpWorkerConn).c.Close()
	if n := connLosses(conn); n != 1 {
		t.Errorf("conn counts %d lost connections after Close, want 1: Close is not a loss", n)
	}
}

// TestControllerReconfiguresRestartedShard is the same for one LB shard
// under a ShardedLB: the frontend reports its shard conns' losses, so
// the next apply of the unchanged plan gives the restarted shard its
// threshold back.
func TestControllerReconfiguresRestartedShard(t *testing.T) {
	f := newFixtures(t)
	clock := NewClock(0.001)
	newLB := func(member int) *LBServer {
		return NewLBServer(LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: 1e9,
			LightMinExec: 0.1, HeavyMinExec: 1.78,
			Clock: clock, Seed: 1, RNGStream: fmt.Sprintf("lb/%d", member),
		})
	}
	threshold := func(lb *LBServer) float64 {
		lb.resMu.Lock()
		defer lb.resMu.Unlock()
		return lb.threshold
	}
	lbs := []*LBServer{newLB(0), newLB(1)}
	srvs := make([]*TCPServer, len(lbs))
	conns := make([]LBConn, len(lbs))
	for i, lb := range lbs {
		srv, err := ServeLBTCP("127.0.0.1:0", lb)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srvs[i] = srv
		if conns[i], err = DialLB(srv.Addr()); err != nil {
			t.Fatal(err)
		}
		defer conns[i].(tcpLBConn).c.Close()
	}
	front, err := NewShardedLB(ShardedLBConfig{Shards: conns, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	loop := NewControllerLoop(ControllerConfig{
		Ctrl: f.controller(t, 1, 5), LB: front,
		Mode: loadbalancer.ModeCascade, Clock: clock,
		Logf: func(format string, args ...interface{}) { t.Errorf("controller: "+format, args...) },
	})
	ctx := context.Background()
	plan := allocator.Plan{Threshold: 0.7}
	loop.Apply(ctx, plan)
	for i, lb := range lbs {
		if th := threshold(lb); th != plan.Threshold {
			t.Fatalf("shard %d holds threshold %v after the first apply, want %v", i, th, plan.Threshold)
		}
	}

	addr := srvs[1].Addr()
	srvs[1].Close()
	lbs[1] = newLB(1)
	srv, err := ServeLBTCP(addr, lbs[1])
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer srv.Close()
	waitConnLoss(t, front, 1)
	loop.Apply(ctx, plan)
	if th := threshold(lbs[1]); th != plan.Threshold {
		t.Fatalf("restarted shard holds threshold %v after the next apply, want %v", th, plan.Threshold)
	}
}

// TestHarnessReportsTransportFailure kills the TCP listeners midway
// through a harness run and asserts the run surfaces the transport
// failure instead of silently dropping the in-flight queries.
func TestHarnessReportsTransportFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("harness failure injection skipped in -short mode")
	}
	f := newFixtures(t)
	tr, err := trace.Static(6, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp := newTCPTransport()
	defer tp.Close()

	resCh := make(chan *metrics.Collector, 1)
	errCh := make(chan error, 1)
	go func() {
		r, err := build(HarnessConfig{
			Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
			Mode: loadbalancer.ModeCascade, Workers: 4, SLO: 5,
			Trace: tr, Ctrl: f.controller(t, 4, 5),
			Timescale: 0.1, Seed: 7, DisableLoadDelay: true,
		}, tp)
		var res *metrics.Collector
		if err == nil {
			res, err = r.replayWall()
		}
		resCh <- res
		errCh <- err
	}()

	// Let the replay get underway, then kill the server side. The
	// clients' redials must exhaust and abort the run.
	time.Sleep(700 * time.Millisecond)
	tp.closeServers()

	select {
	case res := <-resCh:
		err := <-errCh
		if err == nil {
			t.Fatalf("harness swallowed the transport failure: res=%+v", res)
		}
		if !strings.Contains(err.Error(), "transport failed mid-run") {
			t.Errorf("error %q does not name the transport failure", err)
		}
		t.Logf("harness reported: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("harness did not return after the transport died")
	}
}
