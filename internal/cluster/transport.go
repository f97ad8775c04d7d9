package cluster

import (
	"context"
	"errors"
	"fmt"
)

// LBConn is a client connection to the load balancer's data and
// control plane: the six calls the system makes. Clients submit
// batches and poll for their results, workers pull batches and report
// completions, and the controller configures and reads stats.
// Implementations: NewTCPLBConn (framed TCP, binary codec),
// NewLocalLBConn (in-process direct dispatch, zero serialization) and
// ShardedLB (a frontend over N of either).
//
// PullInto and PollResultsInto decode into a caller-owned response
// struct, reusing its slice capacity across calls. The response is
// overwritten entirely on every call that succeeds; anything the
// caller wants to retain across calls must be copied out first. A call
// that fails may leave the struct exactly as it was passed in (a tcp
// conn does), so a caller that reuses one struct and reads it after an
// error truncates it before the call.
//
// SubmitBatch and Complete carry no response, and what their nil means
// depends on the transport. In-process it means applied: the server
// has run the request. Over tcp it means accepted: the request is
// applied in order with the conn's other SubmitBatch and Complete calls
// and before any later call on the same conn is served, and it is
// delivered at least once across redials — if the connection dies
// before the server's acknowledgement, the conn sends it again ahead of
// everything else on the next dial (a repeated Complete is a no-op; a
// repeated SubmitBatch queues its queries again and the first
// resolution of each is final). On either transport a call that
// returns a response — Stats is the cheap one — is therefore a
// barrier: when it returns, everything this conn accepted before it has
// been applied. Code that looks at the server by any other route
// (another conn, the LBServer itself) needs that barrier first.
// Configure is applied when it returns, on either transport.
type LBConn interface {
	// SubmitBatch admits a batch of queries asynchronously; results
	// arrive via PollResultsInto.
	SubmitBatch(ctx context.Context, req SubmitRequest) error
	// PullInto long-polls for up to req.Max queued queries.
	PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error
	// Complete reports a finished batch.
	Complete(ctx context.Context, req CompleteRequest) error
	// PollResultsInto long-polls for completed results of submitted
	// queries.
	PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) error
	// Configure updates the LB policy knobs.
	Configure(ctx context.Context, req ConfigureLBRequest) error
	// Stats fetches the LB's control-plane report.
	Stats(ctx context.Context) (LBStats, error)
}

// Every conn in the package is the whole interface: there is no
// optional capability to probe for.
var (
	_ LBConn = localLBConn{}
	_ LBConn = tcpLBConn{}
	_ LBConn = (*ShardedLB)(nil)
)

// PullIntoConn is conn.PullInto, kept for benchmark/.
func PullIntoConn(ctx context.Context, conn LBConn, req PullRequest, resp *PullResponse) error {
	return conn.PullInto(ctx, req, resp)
}

// PollResultsIntoConn is conn.PollResultsInto, kept for benchmark/.
func PollResultsIntoConn(ctx context.Context, conn LBConn, req ResultsRequest, resp *ResultsResponse) error {
	return conn.PollResultsInto(ctx, req, resp)
}

// WorkerConn is a client connection to one worker's control plane.
type WorkerConn interface {
	// Configure reassigns the worker's role and batch size.
	Configure(ctx context.Context, req ConfigureWorkerRequest) error
	// Stats fetches the worker's control-plane report.
	Stats(ctx context.Context) (WorkerStats, error)
}

// Transport names accepted by NewTransport and diffserve-sim's
// -transport flag.
const (
	TransportInproc = "inproc" // in-process direct dispatch
	TransportTCP    = "tcp"    // framed TCP with the binary codec
)

// Transport assembles a cluster's connections: it makes servers
// reachable and hands out conns for the workers, the controller, and
// the replay client. The tcp transport serves components on loopback
// listeners and connects them with persistent multiplexed framed
// connections; the in-process transport skips the network and the
// codec entirely.
type Transport interface {
	// Name returns the transport name ("inproc" or "tcp").
	Name() string
	// ServeLB makes the LB reachable and returns a conn to it.
	ServeLB(s *LBServer) (LBConn, error)
	// ServeWorker makes a worker's control plane reachable.
	ServeWorker(s *WorkerServer) (WorkerConn, error)
	// Close tears down listeners (no-op for inproc).
	Close()
	// Errors exposes fatal transport failures (a connection lost for
	// good, dial retries exhausted). Harnesses watch it so a dead
	// transport aborts the run instead of silently dropping queries.
	// A nil channel means the transport never reports (inproc cannot
	// fail).
	Errors() <-chan error
}

// TransportError classifies an event on Transport.Errors(): transient
// faults (an injected fault, a conn that severed and redialed) versus
// fatal ones (dial retries exhausted for good, a listener gone).
// Harnesses abort a run only on fatal events. A bare error on the
// channel is fatal — classification is opt-in, so reporters that
// predate it keep their abort semantics.
type TransportError struct {
	Err       error
	Transient bool
}

func (e *TransportError) Error() string {
	if e.Transient {
		return "transient transport fault: " + e.Err.Error()
	}
	return e.Err.Error()
}

func (e *TransportError) Unwrap() error { return e.Err }

// TransientTransportError wraps err as a transient (non-aborting)
// transport event.
func TransientTransportError(err error) error {
	return &TransportError{Err: err, Transient: true}
}

// IsTransientTransportError reports whether err is classified as
// transient. Unclassified errors are fatal.
func IsTransientTransportError(err error) bool {
	var te *TransportError
	return errors.As(err, &te) && te.Transient
}

// NewTransport builds a transport by name. Empty defaults to tcp, the
// wire every standalone binary speaks.
func NewTransport(name string) (Transport, error) {
	switch name {
	case "", TransportTCP:
		return newTCPTransport(), nil
	case TransportInproc:
		return localTransport{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown transport %q (have inproc, tcp)", name)
}

// DialLB connects to a standalone load balancer process at addr, a
// "host:port" (a tcp:// prefix is accepted).
func DialLB(addr string) (LBConn, error) {
	if err := checkTCPAddr(addr); err != nil {
		return nil, err
	}
	return NewTCPLBConn(addr), nil
}

// DialWorker connects to a standalone worker's control plane; see
// DialLB for the address form.
func DialWorker(addr string) (WorkerConn, error) {
	if err := checkTCPAddr(addr); err != nil {
		return nil, err
	}
	return NewTCPWorkerConn(addr), nil
}

// localTransport wires components with direct calls.
type localTransport struct{}

func (localTransport) Name() string                        { return TransportInproc }
func (localTransport) ServeLB(s *LBServer) (LBConn, error) { return NewLocalLBConn(s), nil }
func (localTransport) ServeWorker(s *WorkerServer) (WorkerConn, error) {
	return NewLocalWorkerConn(s), nil
}
func (localTransport) Close() {}

func (localTransport) Errors() <-chan error { return nil }

// --- in-process conns ---

type localLBConn struct{ s *LBServer }

// NewLocalLBConn returns an LBConn that dispatches into the server
// with direct calls — the in-process fast path: no serialization, no
// sockets, no goroutine-per-request.
func NewLocalLBConn(s *LBServer) LBConn { return localLBConn{s: s} }

// dispatchesInProcess marks the conn for ShardedLB (see inProcessConn).
func (localLBConn) dispatchesInProcess() {}

func (c localLBConn) SubmitBatch(ctx context.Context, req SubmitRequest) error {
	c.s.SubmitBatchReq(req)
	return ctx.Err()
}

func (c localLBConn) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error {
	c.s.PullInto(ctx, req, resp)
	return ctx.Err()
}

func (c localLBConn) PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) error {
	c.s.PollResultsInto(ctx, req, resp)
	return ctx.Err()
}

func (c localLBConn) Complete(ctx context.Context, req CompleteRequest) error {
	c.s.Complete(req)
	return ctx.Err()
}

func (c localLBConn) Configure(ctx context.Context, req ConfigureLBRequest) error {
	c.s.Configure(req)
	return ctx.Err()
}

func (c localLBConn) Stats(ctx context.Context) (LBStats, error) {
	return c.s.Stats(), ctx.Err()
}

type localWorkerConn struct{ s *WorkerServer }

// NewLocalWorkerConn returns a WorkerConn dispatching direct calls.
func NewLocalWorkerConn(s *WorkerServer) WorkerConn { return localWorkerConn{s: s} }

func (c localWorkerConn) Configure(ctx context.Context, req ConfigureWorkerRequest) error {
	c.s.Configure(req)
	return ctx.Err()
}

func (c localWorkerConn) Stats(ctx context.Context) (WorkerStats, error) {
	return c.s.Stats(), ctx.Err()
}
