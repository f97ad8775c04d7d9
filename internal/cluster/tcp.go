package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the framed TCP transport: the wire messages,
// binary-encoded, over persistent TCP connections with length-prefixed
// frames and multiplexed request/response correlation.
//
// Frame layout (both directions):
//
//	uint32 big-endian  body length (header + payload, ≤ maxFrameBody)
//	byte               frame kind (request, response, error)
//	byte               method (methodSubmit … methodWorkerStats)
//	uint64 big-endian  request id (responses echo it)
//	payload            binary-encoded message, or UTF-8 error text
//
// A client writes request frames on one persistent connection and
// correlates responses by id, so any number of in-flight calls —
// including server-side-blocking long polls — share the connection.
//
// The server decodes and serves every request on the connection's read
// loop, in arrival order. A method that can park (Pull, PollResults) is
// first tried without waiting and answered inline when something was
// ready or nothing was asked to wait; only a call that really has to
// park gets a goroutine. Inline responses are buffered and leave in one
// write when the read loop has consumed everything it received (or
// hands a request to a goroutine), so [Complete, Pull] arriving in one
// segment costs one read and one write.
//
// The client has two primitives. call writes a request, flushes, and
// waits for the response. post (SubmitBatch, Complete: requests whose
// response carries nothing) buffers the request and returns; the frame
// leaves with the next call's flush or, failing that, with the
// connection's flusher goroutine, and the read loop consumes the
// acknowledgement. A posted frame is kept until it is acknowledged: if
// the connection dies first, the next dial writes every unacknowledged
// frame again, oldest first, before anything new. Together with the
// in-order read loop that gives a post these semantics: accepted in
// order on this conn; applied before any later call on the same conn is
// served; delivered at least once across redials.

const (
	// frameIDAt is where the request id starts in a body, after the
	// kind and method bytes. A client encodes a request frame before it
	// has an id and patches the id in (setFrameID).
	frameIDAt = 2
	// frameHeaderLen is the fixed body header: kind + method + request
	// id.
	frameHeaderLen = frameIDAt + 8
	// maxFrameBody caps the declared body length. Decoders reject
	// anything larger before allocating, so a corrupted or hostile
	// length prefix cannot trigger a huge allocation.
	maxFrameBody = 8 << 20
	// frameReadChunk is the read granularity when the body buffer must
	// grow: bytes are copied in at most this many at a time, so the
	// buffer never runs more than one chunk (plus append's geometric
	// slack) ahead of what actually arrived.
	frameReadChunk = 4096
)

// Frame kinds.
const (
	frameRequest byte = iota + 1
	frameResponse
	frameError
)

// Methods multiplexed over one connection. Id 1 was the blocking
// single-query submit and id 10 the membership-discovery read: both are
// retired, never reused, and a server answers them like any method it
// does not serve, with an error frame.
const (
	methodQueryRetired byte = iota + 1
	methodSubmit
	methodResults
	methodPull
	methodComplete
	methodConfigureLB
	methodLBStats
	methodConfigureWorker
	methodWorkerStats
	methodMembershipRetired
	methodMax = methodMembershipRetired
)

// ErrTransportClosed is returned by calls on a closed TCP conn or
// transport.
var ErrTransportClosed = errors.New("cluster: transport closed")

// framePool recycles frame buffers across reads and writes. All
// returns go through putFrame, which poisons the buffer first under
// the poolpoison build tag — anything still aliasing a recycled frame
// (a decoded message that kept a payload reference, a response read
// after its call finished) turns to garbage in tests instead of
// silently decoding stale bytes.
var framePool = sync.Pool{New: func() interface{} { b := make([]byte, 0, 4096); return &b }}

func getFrame() *[]byte { return framePool.Get().(*[]byte) }

func putFrame(bp *[]byte) {
	poisonFrame(*bp)
	framePool.Put(bp)
}

// frame is a decoded frame header plus its payload (aliasing the read
// buffer).
type frame struct {
	kind, method byte
	id           uint64
	payload      []byte
}

// readFrame reads one length-prefixed frame, reusing buf when it is
// large enough. It returns the (possibly grown) buffer for the next
// call. The body buffer grows only as bytes actually arrive, so a
// lying length prefix wastes at most ~2x the received bytes.
func readFrame(br *bufio.Reader, buf []byte) (frame, []byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(br, lenb[:]); err != nil {
		return frame{}, buf, err
	}
	n := int(binary.BigEndian.Uint32(lenb[:]))
	if n < frameHeaderLen {
		return frame{}, buf, fmt.Errorf("cluster: tcp frame body %dB shorter than %dB header", n, frameHeaderLen)
	}
	if n > maxFrameBody {
		return frame{}, buf, fmt.Errorf("cluster: tcp frame body %dB exceeds %dB cap", n, maxFrameBody)
	}
	if cap(buf) >= n {
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return frame{}, buf[:0], fmt.Errorf("cluster: tcp frame truncated: %w", err)
		}
	} else {
		buf = buf[:0]
		var chunk [frameReadChunk]byte
		for len(buf) < n {
			step := min(n-len(buf), len(chunk))
			m, err := io.ReadFull(br, chunk[:step])
			buf = append(buf, chunk[:m]...)
			if err != nil {
				return frame{}, buf, fmt.Errorf("cluster: tcp frame truncated: %w", err)
			}
		}
	}
	f := frame{
		kind:    buf[0],
		method:  buf[1],
		id:      binary.BigEndian.Uint64(buf[frameIDAt:frameHeaderLen]),
		payload: buf[frameHeaderLen:n],
	}
	switch {
	case f.kind < frameRequest || f.kind > frameError:
		return frame{}, buf, fmt.Errorf("cluster: tcp frame kind %d invalid", f.kind)
	case f.method < methodQueryRetired || f.method > methodMax:
		return frame{}, buf, fmt.Errorf("cluster: tcp frame method %d invalid", f.method)
	}
	return f, buf, nil
}

// appendFrame encodes a whole frame into b (which must be the empty
// start of a frame buffer): length prefix, header, and either the
// binary-encoded msg (straight into the frame buffer, no intermediate
// slice) or the error text.
func appendFrame(b []byte, kind, method byte, id uint64, msg interface{}, errText string) ([]byte, error) {
	b = append(b, make([]byte, 4+frameHeaderLen)...)
	b[4], b[5] = kind, method
	setFrameID(b, id)
	switch {
	case errText != "":
		b = append(b, errText...)
	case msg != nil:
		var err error
		if b, err = CodecBinary.MarshalAppend(b, msg); err != nil {
			return b, err
		}
	}
	if len(b)-4 > maxFrameBody {
		return b, fmt.Errorf("cluster: tcp frame body %dB exceeds %dB cap", len(b)-4, maxFrameBody)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	return b, nil
}

// setFrameID writes id into the header of the encoded frame b.
func setFrameID(b []byte, id uint64) {
	binary.BigEndian.PutUint64(b[4+frameIDAt:], id)
}

// --- server ---

// tcpService is the server side of the protocol: newRequest returns
// the message a method decodes into (nil for methods with no request
// payload, ok=false for methods the service does not serve), and
// serve runs the fully decoded request. Splitting decode from serve
// lets the read loop recycle the frame buffer before serve runs — long
// polls hold requests open for seconds and must not pin pooled
// buffers.
//
// newRequest hands out pooled structs; the server owns them and
// returns both request and response to the pools via ReleaseMessage
// once the response frame is written. Handlers therefore must not
// retain anything a request references past serve's return (strings
// are immutable and exempt; the LB copies a completion's features into
// a pending result's own buffer).
//
// serve is first called on the connection's read loop with park false:
// it must not block, and answers errWouldPark when the call can only
// be served by waiting (a long poll that found nothing). The server
// then calls it again with park true on a goroutine of its own.
// Methods that never wait ignore park.
type tcpService interface {
	newRequest(method byte) (msg interface{}, ok bool)
	serve(ctx context.Context, method byte, req interface{}, park bool) (interface{}, error)
}

// errWouldPark is serve's answer to a call it was told not to park for.
var errWouldPark = errors.New("cluster: tcp call would park")

// TCPServer serves a component's API over the framed TCP protocol.
// Construct one with ServeLBTCP or ServeWorkerTCP.
type TCPServer struct {
	lis    net.Listener
	svc    tcpService
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// ServeLBTCP listens on addr (e.g. ":8100", or "127.0.0.1:0" for an
// ephemeral loopback port) and serves the load balancer's full data
// and control plane over framed TCP.
func ServeLBTCP(addr string, s *LBServer) (*TCPServer, error) {
	return newTCPServer(addr, lbService{s})
}

// ServeWorkerTCP listens on addr and serves a worker's control plane
// over framed TCP.
func ServeWorkerTCP(addr string, s *WorkerServer) (*TCPServer, error) {
	return newTCPServer(addr, workerService{s})
}

// lbService adapts an LBServer to the framed-TCP protocol.
type lbService struct{ s *LBServer }

func (lbService) newRequest(method byte) (interface{}, bool) {
	switch method {
	case methodSubmit:
		return getSubmitRequest(), true
	case methodResults:
		return getResultsRequest(), true
	case methodPull:
		return getPullRequest(), true
	case methodComplete:
		return getCompleteRequest(), true
	case methodConfigureLB:
		return getConfigureLBRequest(), true
	case methodLBStats:
		return nil, true
	}
	return nil, false
}

func (l lbService) serve(ctx context.Context, method byte, req interface{}, park bool) (interface{}, error) {
	switch method {
	case methodSubmit:
		l.s.SubmitBatchReq(*req.(*SubmitRequest))
		return nil, nil
	case methodResults:
		// Try first: a long poll is served without parking when results
		// are already buffered.
		r := *req.(*ResultsRequest)
		try := !park && r.Wait > 0
		if try {
			r.Wait = 0
		}
		resp := getResultsResponse()
		l.s.PollResultsInto(ctx, r, resp)
		if try && len(resp.Results) == 0 {
			ReleaseMessage(resp)
			return nil, errWouldPark
		}
		return resp, nil
	case methodPull:
		// Try first, as above.
		r := *req.(*PullRequest)
		try := !park && r.Wait > 0
		if try {
			r.Wait = 0
		}
		resp := getPullResponse()
		l.s.PullInto(ctx, r, resp)
		if try && len(resp.Queries) == 0 {
			ReleaseMessage(resp)
			return nil, errWouldPark
		}
		return resp, nil
	case methodComplete:
		l.s.Complete(*req.(*CompleteRequest))
		return nil, nil
	case methodConfigureLB:
		l.s.Configure(*req.(*ConfigureLBRequest))
		return nil, nil
	case methodLBStats:
		out := l.s.Stats()
		return &out, nil
	}
	return nil, fmt.Errorf("method %d not served by the load balancer", method)
}

// workerService adapts a WorkerServer's control plane to the
// framed-TCP protocol.
type workerService struct{ s *WorkerServer }

func (workerService) newRequest(method byte) (interface{}, bool) {
	switch method {
	case methodConfigureWorker:
		return getConfigureWorkerRequest(), true
	case methodWorkerStats:
		return nil, true
	}
	return nil, false
}

func (w workerService) serve(_ context.Context, method byte, req interface{}, _ bool) (interface{}, error) {
	switch method {
	case methodConfigureWorker:
		w.s.Configure(*req.(*ConfigureWorkerRequest))
		return nil, nil
	case methodWorkerStats:
		out := w.s.Stats()
		return &out, nil
	}
	return nil, fmt.Errorf("method %d not served by the worker", method)
}

func newTCPServer(addr string, svc tcpService) (*TCPServer, error) {
	lis, err := net.Listen("tcp", tcpAddr(addr))
	if err != nil {
		return nil, fmt.Errorf("cluster: tcp listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &TCPServer{
		lis: lis, svc: svc, ctx: ctx, cancel: cancel,
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address ("host:port").
func (s *TCPServer) Addr() string { return s.lis.Addr().String() }

// Close stops accepting, closes every connection (cancelling in-flight
// long polls), and waits for the serving goroutines to drain.
func (s *TCPServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.cancel()
	s.lis.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	br := bufio.NewReaderSize(conn, 32<<10)
	w := &frameWriter{conn: conn, bw: bufio.NewWriterSize(conn, 32<<10)}
	for {
		bp := getFrame()
		f, buf, err := readFrame(br, (*bp)[:0])
		*bp = buf
		if err != nil || f.kind != frameRequest {
			putFrame(bp)
			return // closed, EOF, or protocol violation: drop the conn
		}
		req, err := s.decode(f)
		// The frame buffer is recycled as soon as the request is decoded,
		// before serve can block; only f's header fields live on.
		f.payload = nil
		putFrame(bp)
		var resp interface{}
		if err == nil {
			resp, err = s.svc.serve(ctx, f.method, req, false)
		}
		if err == errWouldPark {
			// The call has to wait, on a goroutine of its own so it never
			// blocks the connection's other requests. Responses buffered
			// so far leave first: no acknowledgement waits out a long poll.
			w.flush()
			s.wg.Add(1)
			go s.park(ctx, w, f, req)
			continue
		}
		// Served inline. The response leaves now only if the read loop is
		// about to block; otherwise it shares a write with the responses
		// to the frames already received behind this one.
		w.respond(f, req, resp, err, br.Buffered() == 0)
	}
}

// decode returns the pooled message f's payload decodes into: nil for
// a method that carries no request payload. Nothing is taken from a
// pool for a frame that is refused. The binary decoder overwrites every
// field, so a pooled request's dirty capacity is reused as it is.
func (s *TCPServer) decode(f frame) (interface{}, error) {
	req, known := s.svc.newRequest(f.method)
	if !known {
		return nil, fmt.Errorf("method %d not supported", f.method)
	}
	if req == nil {
		return nil, nil
	}
	if err := CodecBinary.Unmarshal(f.payload, req); err != nil {
		ReleaseMessage(req)
		return nil, err
	}
	return req, nil
}

// park serves one call that has to wait and writes its response.
func (s *TCPServer) park(ctx context.Context, w *frameWriter, f frame, req interface{}) {
	defer s.wg.Done()
	resp, err := s.svc.serve(ctx, f.method, req, true)
	w.respond(f, req, resp, err, true)
}

// frameWriter serializes response frames onto one connection. The
// first write failure closes the connection: responses can never be
// delivered again, so continuing to read and execute the peer's
// requests would apply side effects the peer never hears about.
// Closing unblocks the connection's read loop, which tears the
// serving state down and cancels in-flight handlers.
//
// Who flushes when: the read loop's inline responses ask for a flush
// only when the read buffer is empty (the loop is about to block), and
// the loop flushes before it hands a request to a goroutine; a parked
// call's response always asks. Among writers that ask, flushes are
// coalesced: writers announce themselves on the atomic counter before
// taking the lock, and only the writer that brings the counter back to
// zero flushes. Under a burst of concurrent responses (the sharded
// frontend resolving a fan-out, a worker group's pulls firing together)
// the buffered frames go out in one syscall instead of one per
// response; a lone response is written and flushed in one critical
// section.
type frameWriter struct {
	conn    net.Conn
	writers atomic.Int32 // announced-but-not-yet-written frames
	mu      sync.Mutex
	bw      *bufio.Writer
	err     error
}

// respond writes the response (or error) frame of one served call and
// returns the pooled request and response messages to their pools
// (handlers must not retain them; see tcpService).
func (w *frameWriter) respond(f frame, req, resp interface{}, err error, flush bool) {
	if req != nil {
		ReleaseMessage(req)
	}
	if err != nil {
		w.write(frameError, f.method, f.id, nil, err.Error(), flush)
		return
	}
	w.write(frameResponse, f.method, f.id, resp, "", flush)
	if resp != nil {
		ReleaseMessage(resp)
	}
}

func (w *frameWriter) write(kind, method byte, id uint64, msg interface{}, errText string, flush bool) {
	bp := getFrame()
	b, err := appendFrame((*bp)[:0], kind, method, id, msg, errText)
	if err != nil {
		// Encoding failed: report the failure instead of the payload.
		b, err = appendFrame(b[:0], frameError, method, id, nil, err.Error())
	}
	if err == nil {
		w.writers.Add(1)
		w.mu.Lock()
		wasDead := w.err != nil
		if w.err == nil {
			if _, werr := w.bw.Write(b); werr != nil {
				w.err = werr
			}
		}
		// Last announced writer flushes for everyone; any writer that
		// announced after our Add(1) is guaranteed to reach its own
		// flush check, and what an inline response leaves buffered the
		// read loop flushes before it blocks, so frames never strand.
		if w.writers.Add(-1) == 0 && flush && w.err == nil {
			w.err = w.bw.Flush()
		}
		if w.err != nil && !wasDead {
			w.conn.Close()
		}
		w.mu.Unlock()
	}
	*bp = b
	putFrame(bp)
}

// flush sends whatever inline responses are still buffered.
func (w *frameWriter) flush() {
	w.mu.Lock()
	if w.err == nil && w.bw.Buffered() > 0 {
		if w.err = w.bw.Flush(); w.err != nil {
			w.conn.Close()
		}
	}
	w.mu.Unlock()
}

// --- client ---

// tcpDialAttempts bounds connection-establishment retries before a
// call fails and the transport reports the error.
const tcpDialAttempts = 5

// maxPosted bounds the posted frames one connection holds
// unacknowledged. At the bound a post becomes an ordinary call and
// waits for its own response, which is the backpressure: a server that
// stops reading turns posts back into blocking calls.
const maxPosted = 256

// tcpClient multiplexes calls over one persistent framed connection,
// redialing (with backoff) when the connection is lost.
type tcpClient struct {
	addr string
	errs chan<- error // fatal transport errors (nil: unreported)

	// closed is atomic so Close takes effect immediately even while
	// a dial-retry cycle is in flight.
	closed atomic.Bool
	losses atomic.Uint64 // connections fail marked dead before Close: see lossCounter

	mu      sync.Mutex
	cs      *tcpConnState // nil when disconnected
	dialing chan struct{} // non-nil while one caller redials
	// replay holds the posted frames dead connections left
	// unacknowledged, oldest first. The next successful dial writes
	// them before any new frame.
	replay []*[]byte
}

// tcpConnState is the per-connection half of the client: the
// correlation slot table and the writer, both tied to one net.Conn's
// lifetime.
//
// Correlation is by reusable slot, not by per-call channel: a frame
// id encodes a slot index (low 32 bits) and that slot's generation
// (high 32 bits). A call acquires a free slot, bumps nothing, and
// waits on the slot's persistent 1-buffered channel; releasing the
// slot increments its generation, so a response that arrives after
// its call was cancelled fails the generation check and is discarded
// instead of being delivered to the slot's next occupant. The table
// grows to the connection's high-water concurrency and is then
// allocation-free.
type tcpConnState struct {
	client *tcpClient
	conn   net.Conn
	bw     *bufio.Writer

	// writers counts announced-but-not-yet-written frames of calls for
	// coalesced flushing (same discipline as frameWriter). Posts do not
	// announce: they leave their frame buffered for the next call's
	// flush and kick flushLoop in case none comes.
	writers atomic.Int32
	kick    chan struct{}  // 1-buffered: a post buffered a frame
	done    chan struct{}  // closed by fail
	loops   sync.WaitGroup // readLoop and flushLoop

	mu      sync.Mutex
	slots   []*tcpSlot
	free    []uint32 // free slot indexes, LIFO for cache warmth
	posted  int      // slots holding an unacknowledged posted frame
	postSeq uint64   // posts so far: the order a replay keeps
	dead    bool
	err     error
}

// tcpSlot is one reusable waiter: the channel survives across calls.
// A posted call has no waiter; its slot instead keeps the request
// frame (post, in post order seq) until the read loop sees the
// acknowledgement, so a lost connection can write it again.
type tcpSlot struct {
	ch   chan tcpResult
	gen  uint32
	busy bool
	post *[]byte
	seq  uint64
}

// acquireSlotLocked returns a slot and the frame id encoding it.
// Callers must hold cs.mu.
func (cs *tcpConnState) acquireSlotLocked() (*tcpSlot, uint64) {
	var idx uint32
	if n := len(cs.free); n > 0 {
		idx = cs.free[n-1]
		cs.free = cs.free[:n-1]
	} else {
		idx = uint32(len(cs.slots))
		cs.slots = append(cs.slots, &tcpSlot{ch: make(chan tcpResult, 1)})
	}
	sl := cs.slots[idx]
	sl.busy = true
	return sl, uint64(sl.gen)<<32 | uint64(idx)
}

// releaseSlotLocked retires a call's slot: the generation bump
// invalidates any response still in flight, and a result that raced
// into the buffer is drained so the next occupant starts clean.
// Callers must hold cs.mu.
func (cs *tcpConnState) releaseSlotLocked(id uint64) {
	idx := uint32(id)
	sl := cs.slots[idx]
	sl.busy = false
	sl.gen++
	select {
	case res := <-sl.ch:
		if res.bp != nil {
			putFrame(res.bp)
		}
	default:
	}
	cs.free = append(cs.free, idx)
}

// postLocked takes a slot that keeps the encoded request frame bp
// until its acknowledgement and buffers the frame, unflushed. Callers
// must hold cs.mu.
func (cs *tcpConnState) postLocked(bp *[]byte) error {
	sl, id := cs.acquireSlotLocked()
	setFrameID(*bp, id)
	cs.postSeq++
	sl.post, sl.seq = bp, cs.postSeq
	cs.posted++
	_, err := cs.bw.Write(*bp)
	return err
}

type tcpResult struct {
	bp      *[]byte // pooled payload buffer (nil on error)
	payload []byte
	err     error
}

func newTCPClient(addr string, errs chan<- error) *tcpClient {
	return &tcpClient{addr: tcpAddr(addr), errs: errs}
}

// tcpAddr strips an optional tcp:// scheme so flags accept both
// "host:port" and "tcp://host:port".
func tcpAddr(addr string) string {
	return strings.TrimPrefix(addr, "tcp://")
}

// checkTCPAddr rejects addresses carrying a non-tcp scheme before
// they reach the dialer, where an http:// base URL would otherwise
// burn the full retry budget resolving a nonsense host and fail
// without naming the actual mistake.
func checkTCPAddr(addr string) error {
	if i := strings.Index(addr, "://"); i >= 0 && addr[:i] != "tcp" {
		return fmt.Errorf("cluster: %q has scheme %q — the tcp transport takes host:port (or tcp://host:port) addresses", addr, addr[:i])
	}
	return nil
}

func (c *tcpClient) report(err error) {
	if c.errs == nil || c.closed.Load() {
		return // failures after Close are teardown, not faults
	}
	select {
	case c.errs <- err:
	default:
	}
}

// connState returns the live connection state, dialing if
// disconnected. Dialing is single-flight and runs WITHOUT holding
// c.mu, so concurrent callers wait on a channel and stay
// interruptible by their own contexts instead of queueing
// uninterruptibly on the mutex through a multi-second retry cycle.
func (c *tcpClient) connState(ctx context.Context) (*tcpConnState, error) {
	for {
		c.mu.Lock()
		if c.closed.Load() {
			c.mu.Unlock()
			return nil, ErrTransportClosed
		}
		if c.cs != nil {
			cs := c.cs
			c.mu.Unlock()
			return cs, nil
		}
		if c.dialing == nil {
			// This caller dials; everyone else waits on done.
			done := make(chan struct{})
			c.dialing = done
			c.mu.Unlock()

			cs, err := c.dial(ctx)
			if err == nil {
				// Nobody else can see cs yet, and nothing adds to c.replay
				// while a dial is in flight: what the last connection left
				// unacknowledged goes out first.
				c.mu.Lock()
				lost := c.replay
				c.replay = nil
				c.mu.Unlock()
				if err = cs.replay(lost); err != nil {
					cs.fail(err) // the frames are back in c.replay
				}
			}
			c.mu.Lock()
			c.dialing = nil
			if err == nil && c.closed.Load() {
				err = ErrTransportClosed
			}
			if err == nil {
				c.cs = cs
				cs.loops.Add(2)
				go cs.readLoop()
				go cs.flushLoop()
			}
			c.mu.Unlock()
			close(done)
			if err != nil {
				if cs != nil {
					cs.fail(err) // closed while dialing: the frames go to the pool
				}
				return nil, err
			}
			continue
		}
		done := c.dialing
		c.mu.Unlock()
		select {
		case <-done:
			// Re-check: the dial succeeded or this caller retries it.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// dial establishes one connection, retrying with backoff. It holds no
// client locks; the retry loop aborts early when the client is closed
// or ctx is cancelled. Exhausting the retries is a fatal transport
// error: it is pushed to the error channel and returned.
func (c *tcpClient) dial(ctx context.Context) (*tcpConnState, error) {
	var err error
	backoff := 10 * time.Millisecond
	for i := 0; i < tcpDialAttempts; i++ {
		if c.closed.Load() {
			return nil, ErrTransportClosed
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if i > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
			backoff *= 2
		}
		var conn net.Conn
		conn, err = net.DialTimeout("tcp", c.addr, 2*time.Second)
		if err != nil {
			continue
		}
		return &tcpConnState{
			client: c, conn: conn,
			bw:   bufio.NewWriterSize(conn, 32<<10),
			kick: make(chan struct{}, 1), done: make(chan struct{}),
		}, nil
	}
	err = fmt.Errorf("cluster: tcp dial %s: %w (after %d attempts)", c.addr, err, tcpDialAttempts)
	c.report(err)
	return nil, err
}

// call performs one request/response round trip. in may be nil (empty
// request payload); out may be nil (response payload discarded).
func (c *tcpClient) call(ctx context.Context, method byte, in, out interface{}) error {
	return c.do(ctx, method, in, out, false)
}

// post sends a request whose response carries nothing and returns
// without waiting for it: nil means accepted in order on this
// connection, applied before any later call on it is served, and
// delivered at least once across redials (see the file comment). At
// maxPosted unacknowledged frames it is a call.
func (c *tcpClient) post(ctx context.Context, method byte, in interface{}) error {
	return c.do(ctx, method, in, nil, true)
}

func (c *tcpClient) do(ctx context.Context, method byte, in, out interface{}, post bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Encode the request frame before touching any lock; the request
	// id is patched in once assigned.
	bp := getFrame()
	b, err := appendFrame((*bp)[:0], frameRequest, method, 0, in, "")
	*bp = b
	if err != nil {
		putFrame(bp)
		return fmt.Errorf("cluster: tcp marshal method %d: %w", method, err)
	}

	cs, err := c.connState(ctx)
	if err != nil {
		putFrame(bp)
		return err
	}

	if post {
		cs.mu.Lock()
		if !cs.dead && cs.posted < maxPosted {
			werr := cs.postLocked(bp)
			cs.mu.Unlock()
			if werr != nil {
				// The slot holds the frame: fail queues it for replay.
				cs.fail(fmt.Errorf("cluster: tcp write %s: %w", c.addr, werr))
				return nil
			}
			select {
			case cs.kick <- struct{}{}:
			default: // flushLoop already has a kick pending
			}
			return nil
		}
		cs.mu.Unlock()
	}

	// Announce the pending write before taking the lock so concurrent
	// callers' frames share one coalesced flush (see frameWriter).
	cs.writers.Add(1)
	cs.mu.Lock()
	if cs.dead {
		cs.writers.Add(-1)
		err := cs.err
		cs.mu.Unlock()
		putFrame(bp)
		return err
	}
	sl, id := cs.acquireSlotLocked()
	setFrameID(b, id)
	_, werr := cs.bw.Write(b)
	if cs.writers.Add(-1) == 0 && werr == nil {
		werr = cs.bw.Flush() // posted frames buffered ahead of b leave with it
	}
	cs.mu.Unlock()
	putFrame(bp)

	if werr != nil {
		cs.fail(fmt.Errorf("cluster: tcp write %s: %w", c.addr, werr))
		// fail resolved every busy slot, ours included — but a response
		// that raced in before the failure still counts, so the result
		// is handled exactly like the normal path.
	}
	var res tcpResult
	select {
	case res = <-sl.ch:
	case <-ctx.Done():
		cs.mu.Lock()
		cs.releaseSlotLocked(id)
		cs.mu.Unlock()
		return ctx.Err()
	}
	cs.mu.Lock()
	cs.releaseSlotLocked(id)
	cs.mu.Unlock()
	return c.finish(res, out)
}

// finish decodes one call's resolved result into out and recycles the
// response buffer.
func (c *tcpClient) finish(res tcpResult, out interface{}) error {
	if res.err != nil {
		return res.err
	}
	var err error
	if out != nil {
		err = CodecBinary.Unmarshal(res.payload, out)
	}
	if res.bp != nil {
		putFrame(res.bp)
	}
	return err
}

// Close tears down the connection, fails in-flight calls, and returns
// once the connection's goroutines have exited. Further calls return
// ErrTransportClosed; posted frames still unacknowledged go back to
// the pool undelivered. The atomic flag also aborts any dial-retry
// cycle in progress before taking the lock.
func (c *tcpClient) Close() {
	c.closed.Store(true)
	c.mu.Lock()
	cs := c.cs
	c.cs = nil
	lost := c.replay
	c.replay = nil
	c.mu.Unlock()
	for _, bp := range lost {
		putFrame(bp)
	}
	if cs != nil {
		cs.fail(ErrTransportClosed)
		cs.loops.Wait()
	}
}

// fail marks the connection dead exactly once, resolving every
// waiting slot with err and handing the posted frames still
// unacknowledged to the client, oldest first, for the next dial to
// replay. The next call on the client redials. Sends are non-blocking:
// a slot whose real response already raced into its buffer keeps that
// response.
func (cs *tcpConnState) fail(err error) {
	cs.conn.Close() // first: unblocks a writer holding cs.mu
	cs.mu.Lock()
	if cs.dead {
		cs.mu.Unlock()
		return
	}
	cs.dead = true
	cs.err = err
	close(cs.done)
	var lost []*tcpSlot
	for _, sl := range cs.slots {
		switch {
		case !sl.busy:
		case sl.post != nil:
			lost = append(lost, sl)
		default:
			select {
			case sl.ch <- tcpResult{err: err}:
			default:
			}
		}
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].seq < lost[j].seq })
	frames := make([]*[]byte, len(lost))
	for i, sl := range lost {
		frames[i], sl.post, sl.busy = sl.post, nil, false
	}
	cs.posted = 0
	cs.mu.Unlock()

	// Only the caller that marked the connection dead gets here, so
	// c.cs stays set — and no redial starts — until the frames are
	// queued for it.
	c := cs.client
	c.mu.Lock()
	if c.cs == cs {
		c.cs = nil
	}
	closed := c.closed.Load()
	if !closed {
		c.replay = append(c.replay, frames...)
		c.losses.Add(1)
	}
	c.mu.Unlock()
	if closed {
		for _, bp := range frames {
			putFrame(bp)
		}
	} else if len(frames) > 0 {
		c.report(TransientTransportError(fmt.Errorf(
			"cluster: tcp %s: %d posted frames unacknowledged, replaying on redial: %w", c.addr, len(frames), err)))
	}
}

// replay posts the frames a dead connection left unacknowledged, in
// order, and flushes them. It runs before the connection is visible to
// any caller, so they reach the server ahead of every new frame. On an
// error every frame is in a slot all the same: fail hands them back.
func (cs *tcpConnState) replay(frames []*[]byte) error {
	if len(frames) == 0 {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var err error
	for _, bp := range frames {
		if werr := cs.postLocked(bp); err == nil {
			err = werr
		}
	}
	if err == nil {
		err = cs.bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("cluster: tcp replay %s: %w", cs.client.addr, err)
	}
	return nil
}

// flushLoop sends posted frames no call came along to flush. Each post
// kicks it; there is no timer. With one P it runs when the poster next
// parks (by then usually in a call that has flushed already, and there
// is nothing to do); with several it flushes at once from another P.
func (cs *tcpConnState) flushLoop() {
	defer cs.loops.Done()
	for {
		select {
		case <-cs.done:
			return
		case <-cs.kick:
		}
		var err error
		cs.mu.Lock()
		// An announced call flushes for everyone (see call).
		if !cs.dead && cs.writers.Load() == 0 && cs.bw.Buffered() > 0 {
			err = cs.bw.Flush()
		}
		cs.mu.Unlock()
		if err != nil {
			cs.fail(fmt.Errorf("cluster: tcp write %s: %w", cs.client.addr, err))
		}
	}
}

// readLoop receives response frames and resolves waiting calls by
// slot; the acknowledgement of a posted frame it consumes itself. The
// generation check and the channel send happen under cs.mu, so a
// concurrent cancel (which bumps the generation and drains the slot)
// can never be interleaved with a stale delivery.
func (cs *tcpConnState) readLoop() {
	defer cs.loops.Done()
	br := bufio.NewReaderSize(cs.conn, 32<<10)
	for {
		bp := getFrame()
		f, buf, err := readFrame(br, (*bp)[:0])
		*bp = buf
		if err != nil {
			putFrame(bp)
			cs.fail(fmt.Errorf("cluster: tcp read %s: %w", cs.client.addr, err))
			return
		}
		if f.kind != frameResponse && f.kind != frameError {
			// A request frame from the server: protocol violation.
			putFrame(bp)
			cs.fail(fmt.Errorf("cluster: tcp %s sent frame kind %d", cs.client.addr, f.kind))
			return
		}
		idx, gen := uint32(f.id), uint32(f.id>>32)
		cs.mu.Lock()
		var sl *tcpSlot
		if int64(idx) < int64(len(cs.slots)) {
			if s := cs.slots[idx]; s.busy && s.gen == gen {
				sl = s
			}
		}
		if sl == nil {
			cs.mu.Unlock()
			putFrame(bp) // call cancelled (or never existed): drop it
			continue
		}
		if sl.post != nil {
			// Acknowledged: the kept frame goes back to the pool.
			putFrame(sl.post)
			sl.post = nil
			cs.posted--
			cs.releaseSlotLocked(f.id)
			cs.mu.Unlock()
			if f.kind == frameError {
				// Nobody is waiting to be told: the server refused a frame
				// the caller was promised would be applied.
				cs.client.report(TransientTransportError(fmt.Errorf(
					"cluster: tcp remote refused posted method %d: %s", f.method, f.payload)))
			}
			putFrame(bp)
			continue
		}
		var res tcpResult
		if f.kind == frameResponse {
			// The slot's waiter takes ownership of the frame buffer.
			res = tcpResult{bp: bp, payload: f.payload}
		} else {
			res = tcpResult{err: errors.New("cluster: tcp remote: " + string(f.payload))}
		}
		delivered := false
		select {
		case sl.ch <- res:
			delivered = true
		default: // duplicate response for the id: drop it
		}
		cs.mu.Unlock()
		if !delivered || res.bp == nil {
			putFrame(bp)
		}
	}
}

// --- conns ---

type tcpLBConn struct{ c *tcpClient }

// NewTCPLBConn connects to a framed-TCP load balancer at addr
// ("host:port"; a tcp:// prefix is accepted). The connection is
// persistent and multiplexed; it is established lazily and redialed
// with backoff after failures.
func NewTCPLBConn(addr string) LBConn {
	return tcpLBConn{newTCPClient(addr, nil)}
}

func (c tcpLBConn) SubmitBatch(ctx context.Context, req SubmitRequest) error {
	return c.c.post(ctx, methodSubmit, &req)
}

// PollResultsInto and PullInto decode straight into the caller's
// response struct, reusing its slice capacity across calls: the binary
// decoder overwrites every field.

func (c tcpLBConn) PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) error {
	return c.c.call(ctx, methodResults, &req, resp)
}

func (c tcpLBConn) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error {
	return c.c.call(ctx, methodPull, &req, resp)
}

func (c tcpLBConn) Complete(ctx context.Context, req CompleteRequest) error {
	return c.c.post(ctx, methodComplete, &req)
}

func (c tcpLBConn) Configure(ctx context.Context, req ConfigureLBRequest) error {
	return c.c.call(ctx, methodConfigureLB, &req, nil)
}

func (c tcpLBConn) Stats(ctx context.Context) (LBStats, error) {
	var out LBStats
	err := c.c.call(ctx, methodLBStats, nil, &out)
	return out, err
}

func (c tcpLBConn) connLosses() uint64 { return c.c.losses.Load() }

type tcpWorkerConn struct{ c *tcpClient }

// NewTCPWorkerConn connects to a worker's framed-TCP control plane.
func NewTCPWorkerConn(addr string) WorkerConn {
	return tcpWorkerConn{newTCPClient(addr, nil)}
}

func (c tcpWorkerConn) Configure(ctx context.Context, req ConfigureWorkerRequest) error {
	return c.c.call(ctx, methodConfigureWorker, &req, nil)
}

func (c tcpWorkerConn) Stats(ctx context.Context) (WorkerStats, error) {
	var out WorkerStats
	err := c.c.call(ctx, methodWorkerStats, nil, &out)
	return out, err
}

func (c tcpWorkerConn) connLosses() uint64 { return c.c.losses.Load() }

// --- transport ---

// tcpTransport serves components on loopback TCP listeners and
// connects them with persistent multiplexed framed connections.
type tcpTransport struct {
	errs chan error

	mu    sync.Mutex
	srvs  []*TCPServer
	conns []*tcpClient
}

func newTCPTransport() *tcpTransport {
	return &tcpTransport{errs: make(chan error, 8)}
}

func (t *tcpTransport) Name() string { return TransportTCP }

func (t *tcpTransport) Errors() <-chan error { return t.errs }

func (t *tcpTransport) ServeLB(s *LBServer) (LBConn, error) {
	srv, err := ServeLBTCP("127.0.0.1:0", s)
	if err != nil {
		return nil, err
	}
	cl := newTCPClient(srv.Addr(), t.errs)
	t.mu.Lock()
	t.srvs = append(t.srvs, srv)
	t.conns = append(t.conns, cl)
	t.mu.Unlock()
	return tcpLBConn{cl}, nil
}

func (t *tcpTransport) ServeWorker(s *WorkerServer) (WorkerConn, error) {
	srv, err := ServeWorkerTCP("127.0.0.1:0", s)
	if err != nil {
		return nil, err
	}
	cl := newTCPClient(srv.Addr(), t.errs)
	t.mu.Lock()
	t.srvs = append(t.srvs, srv)
	t.conns = append(t.conns, cl)
	t.mu.Unlock()
	return tcpWorkerConn{cl}, nil
}

func (t *tcpTransport) Close() {
	t.mu.Lock()
	conns, srvs := t.conns, t.srvs
	t.conns, t.srvs = nil, nil
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	for _, s := range srvs {
		s.Close()
	}
}
