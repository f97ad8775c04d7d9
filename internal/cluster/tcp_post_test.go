package cluster

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diffserve/internal/loadbalancer"
)

// probeService wraps a tcpService for the posted-call tests: it counts
// the calls that were served parked, and hold wedges the connection's
// read loop inside the next inline serve of a method until released.
type probeService struct {
	tcpService
	parks atomic.Int64

	mu    sync.Mutex
	holds map[byte]*probeHold
}

type probeHold struct{ entered, release chan struct{} }

// hold arms a one-shot wedge: the next inline serve of method blocks,
// before it is applied, until release is closed; entered is closed once
// the read loop is inside it.
func (p *probeService) hold(method byte) *probeHold {
	h := &probeHold{entered: make(chan struct{}), release: make(chan struct{})}
	p.mu.Lock()
	if p.holds == nil {
		p.holds = map[byte]*probeHold{}
	}
	p.holds[method] = h
	p.mu.Unlock()
	return h
}

func (p *probeService) serve(ctx context.Context, method byte, req interface{}, park bool) (interface{}, error) {
	if park {
		p.parks.Add(1)
	} else {
		p.mu.Lock()
		h := p.holds[method]
		delete(p.holds, method)
		p.mu.Unlock()
		if h != nil {
			close(h.entered)
			<-h.release
		}
	}
	return p.tcpService.serve(ctx, method, req, park)
}

// postRig is one LBServer behind a probed framed-TCP server and one
// client on it, reporting on errs.
type postRig struct {
	lb    *LBServer
	probe *probeService
	srv   *TCPServer
	c     *tcpClient
	conn  tcpLBConn
	errs  chan error
}

func newPostRig(t *testing.T) *postRig {
	t.Helper()
	r := &postRig{
		lb: NewLBServer(LBConfig{
			Mode: loadbalancer.ModeCascade, SLO: 1e9,
			LightMinExec: 0.1, HeavyMinExec: 1.78,
			Clock: NewClock(1), Seed: 1,
		}),
		errs: make(chan error, 64), // every event of a test fits: none is dropped unseen
	}
	r.probe = &probeService{tcpService: lbService{r.lb}}
	var err error
	if r.srv, err = newTCPServer("127.0.0.1:0", r.probe); err != nil {
		t.Fatal(err)
	}
	r.c = newTCPClient(r.srv.Addr(), r.errs)
	r.conn = tcpLBConn{r.c}
	t.Cleanup(func() {
		r.c.Close()
		r.srv.Close()
	})
	return r
}

// dropConns closes the connections the server has accepted; the
// listener stays up, so clients can redial.
func (s *TCPServer) dropConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}

func (c *tcpClient) disconnected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cs == nil
}

// posted returns how many posted frames the live connection holds
// unacknowledged.
func (c *tcpClient) posted() int {
	c.mu.Lock()
	cs := c.cs
	c.mu.Unlock()
	if cs == nil {
		return 0
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.posted
}

// onlyTransient fails the test on any fatal event reported so far and
// returns how many transient ones there were.
func (r *postRig) onlyTransient(t *testing.T) int {
	t.Helper()
	n := 0
	for {
		select {
		case err := <-r.errs:
			if !IsTransientTransportError(err) {
				t.Errorf("fatal transport event: %v", err)
			}
			n++
		default:
			return n
		}
	}
}

func lightItem(id int) CompleteItem {
	return CompleteItem{ID: id, Arrival: 0.001, Variant: "sdturbo", Confidence: 0.9}
}

// TestTCPPostedReplay loses the connection under posted frames twice
// and checks the delivery contract: every unacknowledged frame is
// written again on the next dial, in post order and ahead of the call
// that dialed, and resolution stays exactly-once across a SubmitBatch
// and a Complete that were each applied on the old connection as well.
func TestTCPPostedReplay(t *testing.T) {
	r := newPostRig(t)
	ctx := context.Background()
	const n = 100
	if _, err := r.conn.Stats(ctx); err != nil { // connected
		t.Fatal(err)
	}

	// lose posts frames from..to-1 and loses the connection under them
	// before any acknowledgement exists. The server's read loop is
	// wedged in the first frame (of method) while the rest are posted, so
	// those never leave the kernel's buffers; the wedged frame is applied
	// once the connection is dead, and then again by the replay.
	lose := func(method byte, post func(id int), from, to int) {
		t.Helper()
		h := r.probe.hold(method)
		post(from)
		<-h.entered
		for id := from + 1; id < to; id++ {
			post(id)
		}
		r.srv.dropConns()
		waitUntil(t, 10*time.Second, "the client to notice the lost connection", r.c.disconnected)
		close(h.release)
		waitUntil(t, 10*time.Second, "the old connection's read loop to exit", func() bool {
			r.srv.mu.Lock()
			defer r.srv.mu.Unlock()
			return len(r.srv.conns) == 0
		})
	}

	// Round 1: submits then completes of the same ids, none applied but
	// the first submit, which the old connection applies after it died.
	// Completes replayed ahead of their submits would resolve nothing.
	submit := func(id int) {
		t.Helper()
		if err := r.conn.SubmitBatch(ctx, SubmitRequest{Queries: []QueryMsg{{ID: id, Arrival: 0.001}}}); err != nil {
			t.Fatal(err)
		}
	}
	complete := func(id int) {
		t.Helper()
		if err := r.conn.Complete(ctx, CompleteRequest{Role: "light", Items: []CompleteItem{lightItem(id)}}); err != nil {
			t.Fatal(err)
		}
	}
	lose(methodSubmit, func(i int) {
		if i < n {
			submit(i)
		} else {
			complete(i - n)
		}
	}, 0, 2*n)
	// The Stats call dials; its response is computed behind the replay.
	st, err := r.conn.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != n || st.Dropped != 0 {
		t.Fatalf("after replay: %d completed, %d dropped, want %d / 0", st.Completed, st.Dropped, n)
	}
	if got := r.lb.Collector().Len(); got != n {
		t.Fatalf("collector holds %d records, want %d", got, n)
	}

	// Round 2: the completes alone, for queries submitted and applied
	// before (Stats is the barrier); the first complete is applied twice.
	for id := n; id < 2*n; id++ {
		submit(id)
	}
	if _, err := r.conn.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	lose(methodComplete, complete, n, 2*n)
	if st, err = r.conn.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if st.Completed != 2*n || st.Dropped != 0 {
		t.Fatalf("after second replay: %d completed, %d dropped, want %d / 0", st.Completed, st.Dropped, 2*n)
	}

	// Every query resolved exactly once.
	seen := map[int]bool{}
	for len(seen) < 2*n {
		res, err := pollResults(ctx, r.conn, ResultsRequest{Max: 64})
		if err != nil || len(res.Results) == 0 {
			t.Fatalf("results ran out at %d of %d: %v", len(seen), 2*n, err)
		}
		for _, q := range res.Results {
			if seen[q.ID] || q.Dropped {
				t.Fatalf("query %d resolved twice or dropped: %+v", q.ID, q)
			}
			seen[q.ID] = true
		}
	}
	if res, err := pollResults(ctx, r.conn, ResultsRequest{Max: 64}); err != nil || len(res.Results) != 0 {
		t.Fatalf("%d results beyond the %d submitted: %v", len(res.Results), 2*n, err)
	}
	if got := r.c.posted(); got != 0 {
		t.Errorf("%d posted frames still unacknowledged after the barrier", got)
	}
	if events := r.onlyTransient(t); events != 2 {
		t.Errorf("%d transport events, want one transient event per lost connection", events)
	}
}

// TestTCPPostedBound wedges the server and posts up to the bound: the
// next post is a call, which blocks and honours its context, and
// nothing is lost when the server comes back.
func TestTCPPostedBound(t *testing.T) {
	r := newPostRig(t)
	ctx := context.Background()
	submit := func(ctx context.Context, id int) error {
		return r.conn.SubmitBatch(ctx, SubmitRequest{Queries: []QueryMsg{{ID: id, Arrival: 0.001}}})
	}
	h := r.probe.hold(methodSubmit)
	for id := 0; id < maxPosted; id++ {
		if err := submit(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	<-h.entered
	if got := r.c.posted(); got != maxPosted {
		t.Fatalf("%d posted frames unacknowledged, want %d", got, maxPosted)
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := submit(short, maxPosted); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("post at the bound returned %v, want it to block until its context ended", err)
	}
	if got := r.c.posted(); got != maxPosted {
		t.Errorf("the post at the bound took a posted slot: %d", got)
	}

	close(h.release)
	st, err := r.conn.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The abandoned call's frame was on the wire too.
	if st.LightQueueLen != maxPosted+1 {
		t.Errorf("%d queries queued, want %d", st.LightQueueLen, maxPosted+1)
	}
	if got := r.c.posted(); got != 0 {
		t.Errorf("%d posted frames unacknowledged after the barrier", got)
	}
	if err := submit(ctx, maxPosted+1); err != nil {
		t.Fatal(err)
	}
	r.onlyTransient(t)
}

// TestTCPCloseWithPostedFrames closes a client holding unacknowledged
// posted frames: the frames go back to the pool (poisoned there under
// -tags poolpoison, and not a moment earlier) and neither the read loop
// nor the flusher outlives Close.
func TestTCPCloseWithPostedFrames(t *testing.T) {
	r := newPostRig(t)
	ctx := context.Background()
	before := runtime.NumGoroutine() // listener up, nothing dialed
	h := r.probe.hold(methodSubmit)
	const n = 8
	for id := 0; id < n; id++ {
		if err := r.conn.SubmitBatch(ctx, SubmitRequest{Queries: []QueryMsg{{ID: id, Arrival: 0.001}}}); err != nil {
			t.Fatal(err)
		}
	}
	<-h.entered

	r.c.mu.Lock()
	cs := r.c.cs
	r.c.mu.Unlock()
	var frames []*[]byte
	cs.mu.Lock()
	for _, sl := range cs.slots {
		if sl.post != nil {
			frames = append(frames, sl.post)
		}
	}
	cs.mu.Unlock()
	if len(frames) != n {
		t.Fatalf("%d frames held for replay, want %d", len(frames), n)
	}
	for _, bp := range frames {
		if (*bp)[4] != frameRequest {
			t.Fatalf("an unacknowledged posted frame was recycled: kind byte %#x", (*bp)[4])
		}
	}

	r.c.Close()
	cs.mu.Lock()
	for _, sl := range cs.slots {
		if sl.post != nil {
			t.Error("a slot still holds its frame after Close")
		}
	}
	cs.mu.Unlock()
	r.c.mu.Lock()
	if len(r.c.replay) != 0 {
		t.Errorf("%d frames queued for a replay that cannot happen", len(r.c.replay))
	}
	r.c.mu.Unlock()
	if poolPoisonEnabled {
		for _, bp := range frames {
			if b := (*bp)[:cap(*bp)]; b[4] != 0xDB {
				t.Fatalf("frame not returned to the pool: kind byte %#x", b[4])
			}
		}
	}
	if err := r.conn.SubmitBatch(ctx, SubmitRequest{}); !errors.Is(err, ErrTransportClosed) {
		t.Errorf("post after Close returned %v", err)
	}

	close(h.release) // the server's read loop finds its connection closed
	waitUntil(t, 10*time.Second, "the connection's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
	r.onlyTransient(t)
}

// TestTCPInlineResponseNotStranded sends a Configure and a long poll
// that has to park in one segment: the Configure's response must leave
// before the poll parks, not wait out the poll.
func TestTCPInlineResponseNotStranded(t *testing.T) {
	r := newPostRig(t)
	conn, err := net.Dial("tcp", r.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	seg, err := appendFrame(nil, frameRequest, methodConfigureLB, 1, &ConfigureLBRequest{Threshold: 0.5}, "")
	if err != nil {
		t.Fatal(err)
	}
	// 3600 trace seconds at NewClock(1): the poll ends when woken, below.
	pull, err := appendFrame(nil, frameRequest, methodPull, 2, &PullRequest{Role: "light", Max: 1, Wait: 3600}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(seg, pull...)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, _, err := readFrame(br, nil)
	if err != nil || f.kind != frameResponse || f.id != 1 {
		t.Fatalf("first frame back = %+v, %v; want the Configure's response while the pull is parked", f, err)
	}
	waitUntil(t, 10*time.Second, "the pull to park", func() bool { return r.probe.parks.Load() == 1 })
	r.lb.SubmitBatchReq(SubmitRequest{Queries: []QueryMsg{{ID: 1, Arrival: 0.001}}})
	f, _, err = readFrame(br, nil)
	if err != nil || f.kind != frameResponse || f.id != 2 {
		t.Fatalf("second frame back = %+v, %v; want the woken pull's response", f, err)
	}
	var resp PullResponse
	if err := CodecBinary.Unmarshal(f.payload, &resp); err != nil || len(resp.Queries) != 1 {
		t.Fatalf("woken pull carried %+v, %v", resp, err)
	}
}

// TestTCPTryFirst pins the one dispatch rule for parking methods: a
// long poll that finds something ready is served on the read loop, and
// only one that finds nothing parks, to be woken as before.
func TestTCPTryFirst(t *testing.T) {
	r := newPostRig(t)
	ctx := context.Background()

	// Ready: neither the pull nor the poll parks, whatever their Wait.
	if err := r.conn.SubmitBatch(ctx, SubmitRequest{Queries: []QueryMsg{{ID: 1, Arrival: 0.001}}}); err != nil {
		t.Fatal(err)
	}
	pulled, err := pull(ctx, r.conn, PullRequest{Role: "light", Max: 1, Wait: 3600})
	if err != nil || len(pulled.Queries) != 1 {
		t.Fatalf("pull = %+v, %v", pulled, err)
	}
	if err := completeAll(ctx, r.conn, 0, "light", pulled, 0.9); err != nil {
		t.Fatal(err)
	}
	res, err := pollResults(ctx, r.conn, ResultsRequest{Max: 4, Wait: 3600})
	if err != nil || len(res.Results) != 1 {
		t.Fatalf("poll = %+v, %v", res, err)
	}
	// Nothing ready, nothing asked to wait: answered empty, inline.
	if pulled, err = pull(ctx, r.conn, PullRequest{Role: "light", Max: 1}); err != nil || len(pulled.Queries) != 0 {
		t.Fatalf("zero-wait pull = %+v, %v", pulled, err)
	}
	if got := r.probe.parks.Load(); got != 0 {
		t.Fatalf("%d calls parked with work ready or no wait asked", got)
	}

	// Nothing ready: the pull parks and a later submit wakes it.
	got := make(chan PullResponse, 1)
	go func() {
		resp, err := pull(ctx, r.conn, PullRequest{Role: "light", Max: 1, Wait: 3600})
		if err != nil {
			t.Error(err)
		}
		got <- resp
	}()
	waitUntil(t, 10*time.Second, "the pull to park", func() bool { return r.probe.parks.Load() == 1 })
	if err := r.conn.SubmitBatch(ctx, SubmitRequest{Queries: []QueryMsg{{ID: 2, Arrival: 0.001}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-got:
		if len(resp.Queries) != 1 || resp.Queries[0].ID != 2 {
			t.Errorf("woken pull = %+v", resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked pull never woken by the submit")
	}
	r.onlyTransient(t)
}

// TestTCPPostedConcurrent shares one connection between posters,
// callers, the flusher and the read loop: submitters post batches while
// workers pull, post completions and a collector polls, and every query
// must resolve exactly once.
func TestTCPPostedConcurrent(t *testing.T) {
	r := newPostRig(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const submitters, workers, batches, batch = 4, 4, 100, 4
	const total = submitters * batches * batch

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			qs := make([]QueryMsg, batch)
			for b := 0; b < batches; b++ {
				for j := range qs {
					qs[j] = QueryMsg{ID: (s*batches+b)*batch + j, Arrival: 0.001}
				}
				if err := r.conn.SubmitBatch(ctx, SubmitRequest{Queries: qs}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(s)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var pulled PullResponse
			for ctx.Err() == nil {
				err := r.conn.PullInto(ctx, PullRequest{WorkerID: w, Role: "light", Max: batch, Wait: 0.01}, &pulled)
				if err == nil && len(pulled.Queries) > 0 {
					err = completeAll(ctx, r.conn, w, "light", pulled, 0.9)
				}
				if err != nil && ctx.Err() == nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	ledger := newDeliveryLedger(total)
	var results ResultsResponse
	deadline := time.Now().Add(60 * time.Second)
	for ledger.total.Load() < total {
		if time.Now().After(deadline) {
			t.Fatalf("resolved %d of %d", ledger.total.Load(), total)
		}
		if err := r.conn.PollResultsInto(ctx, ResultsRequest{Max: 64, Wait: 0.01}, &results); err != nil {
			t.Fatal(err)
		}
		ledger.record(results.Results)
	}
	cancel()
	wg.Wait()
	ledger.check(t)
	if st := r.lb.Stats(); st.Completed != total || st.Dropped != 0 {
		t.Errorf("%d completed, %d dropped, want %d / 0", st.Completed, st.Dropped, total)
	}
	r.onlyTransient(t)
}
