package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"diffserve/internal/loadbalancer"
	"diffserve/internal/trace"
)

// TestTCPFrameRoundTrip pins the frame encoding: appendFrame output
// must decode to the same header and payload.
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
	if f.kind != frameRequest || f.method != methodPull || f.codec != codecIDBinary || f.id != 42 {
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

// TestTCPFrameRejectsCorruptHeaders exercises the decode guards:
// oversized and undersized declared lengths, invalid kind, method,
// and codec bytes must all fail without panicking.
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
		"bad-codec":         corrupt(func(b []byte) { b[6] = 7 }),
		"truncated":         valid[:len(valid)-2],
	}
	for name, data := range cases {
		if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil); err == nil {
			t.Errorf("%s: corrupted frame decoded without error", name)
		}
	}
}

// TestTCPRefusesRetiredCodecAndMethod pins the one change a tcp peer
// can see on the wire: a request frame that names the JSON codec, and
// one that names a retired method (the blocking submit, the membership
// read), each get an error frame — nothing is applied, nothing is taken from a message pool for
// them (the suite runs this under -tags poolpoison too), and the
// connection serves the next frame as if they had never arrived.
func TestTCPRefusesRetiredCodecAndMethod(t *testing.T) {
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

	// What a pre-deletion "-codec json" client sent: a well-formed
	// frame, JSON codec id, JSON payload.
	submit := SubmitRequest{Queries: []QueryMsg{{ID: 1, Arrival: 0.001}}}
	payload, err := CodecJSON.Marshal(&submit)
	if err != nil {
		t.Fatal(err)
	}
	jsonFrame, err := appendFrame(nil, frameRequest, methodSubmit, 1, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	jsonFrame = append(jsonFrame, payload...)
	jsonFrame[6] = codecIDJSON
	binary.BigEndian.PutUint32(jsonFrame[:4], uint32(len(jsonFrame)-4))
	// The same codec id over a binary payload, as a peer with only the
	// header wrong would send it.
	mislabelled, err := appendFrame(nil, frameRequest, methodSubmit, 2, &submit, "")
	if err != nil {
		t.Fatal(err)
	}
	mislabelled[6] = codecIDJSON
	// The retired method, payload as its clients encoded it.
	query, err := appendFrame(nil, frameRequest, methodQueryRetired, 3, &QueryMsg{ID: 2, Arrival: 0.001}, "")
	if err != nil {
		t.Fatal(err)
	}
	membership, err := appendFrame(nil, frameRequest, methodMembershipRetired, 4, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := appendFrame(nil, frameRequest, methodLBStats, 5, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for _, f := range [][]byte{jsonFrame, mislabelled, query, membership, stats} {
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
	}{{1, "codec 1 not supported"}, {2, "codec 1 not supported"}, {3, "method 1 not supported"}, {4, "method 10 not supported"}} {
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
	if err != nil || f.kind != frameResponse || f.id != 5 {
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

	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := Run(HarnessConfig{
			Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
			Mode: loadbalancer.ModeCascade, Workers: 4, SLO: 5,
			Trace: tr, Ctrl: f.controller(t, 4, 5),
			Timescale: 0.1, Seed: 7, DisableLoadDelay: true,
			TransportImpl: tp,
		})
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
