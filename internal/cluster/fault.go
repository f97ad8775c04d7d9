package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
)

// FaultMode selects what a fault window (or random per-call fault)
// does to a call.
type FaultMode int

const (
	// FaultSever fails the call outright, both directions: the request
	// never reaches the server (a cut conn).
	FaultSever FaultMode = iota
	// FaultDropRequests is the client->server half of a one-way
	// partition: the request is lost before the server sees it.
	// Indistinguishable from FaultSever at this layer — both return an
	// error without invoking the server — but kept distinct so scripts
	// read as what they model.
	FaultDropRequests
	// FaultDropResponses is the server->client half of a one-way
	// partition: the server executes the call, the reply is lost. This
	// is the mode that exercises duplicate-delivery idempotency — the
	// caller retries a call that already happened.
	FaultDropResponses
)

func (m FaultMode) String() string {
	switch m {
	case FaultSever:
		return "sever"
	case FaultDropRequests:
		return "drop-requests"
	case FaultDropResponses:
		return "drop-responses"
	}
	return fmt.Sprintf("FaultMode(%d)", int(m))
}

// FaultWindow scripts one deterministic fault against one conn: every
// call on conn index Conn (creation order; -1 matches every conn)
// during the trace-time interval [From, To) suffers Mode.
type FaultWindow struct {
	Conn     int
	From, To float64 // trace seconds
	Mode     FaultMode
}

// FaultPlan parameterizes a FaultTransport. Windows script exact
// fault intervals; the probability knobs add seeded random per-call
// faults on top. The zero plan injects nothing.
type FaultPlan struct {
	// Seed drives the per-call fault draws. Each wrapped conn derives
	// its own stream from (Seed, conn index), so one conn's call
	// pattern does not perturb another's faults.
	Seed uint64
	// Clock supplies trace time for window matching and latency
	// injection. Required when Windows or LatencyProb are used.
	Clock *Clock
	// DropRequestProb / DropResponseProb are per-call probabilities of
	// losing the request (server never sees it) or the response
	// (server acted, caller sees an error).
	DropRequestProb, DropResponseProb float64
	// LatencyProb injects LatencySecs trace-seconds of delay before
	// the call with the given per-call probability.
	LatencyProb float64
	LatencySecs float64
	// Windows are the scripted fault intervals.
	Windows []FaultWindow
}

// FaultTransport wraps any Transport and injects faults into the LB
// data path from a deterministic seeded plan: per-call frame drops
// (request or response side), latency spikes, scripted conn severs,
// and one-way partitions. Worker control-plane conns pass through
// unfaulted — the chaos under test is the data path; killing a worker
// is scripted by cancelling its loop, not by faulting Configure.
//
// Every injected fault surfaces on Errors() as a transient
// TransportError, so a harness watching the channel logs the chaos
// without aborting the run; the inner transport's own events are
// forwarded unchanged (a real dial-exhaustion stays fatal).
type FaultTransport struct {
	inner Transport
	plan  FaultPlan
	errs  chan error
	done  chan struct{}

	mu    sync.Mutex
	conns int
}

// NewFaultTransport wraps inner with the given fault plan.
func NewFaultTransport(inner Transport, plan FaultPlan) *FaultTransport {
	t := &FaultTransport{
		inner: inner,
		plan:  plan,
		errs:  make(chan error, 64),
		done:  make(chan struct{}),
	}
	if ch := inner.Errors(); ch != nil {
		go func() {
			for {
				select {
				case err, ok := <-ch:
					if !ok {
						return
					}
					t.report(err)
				case <-t.done:
					return
				}
			}
		}()
	}
	return t
}

func (t *FaultTransport) Name() string { return t.inner.Name() }

// ServeLB wraps the inner conn with the fault layer. Each call gets
// the next conn index, so a test that dials one conn per worker can
// script windows against specific workers.
func (t *FaultTransport) ServeLB(s *LBServer) (LBConn, error) {
	conn, err := t.inner.ServeLB(s)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	idx := t.conns
	t.conns++
	t.mu.Unlock()
	return &faultLBConn{
		t: t, inner: conn, idx: idx,
		rng: rand.New(rand.NewSource(int64(t.plan.Seed)*0x9e3779b9 + int64(idx))),
	}, nil
}

func (t *FaultTransport) ServeWorker(s *WorkerServer) (WorkerConn, error) {
	return t.inner.ServeWorker(s)
}

func (t *FaultTransport) Close() {
	close(t.done)
	t.inner.Close()
}

func (t *FaultTransport) Errors() <-chan error { return t.errs }

// Partition scripts an extra fault window at runtime (a test reacting
// to its own progress). Safe for concurrent use with in-flight calls.
func (t *FaultTransport) Partition(conn int, from, to float64, mode FaultMode) {
	t.mu.Lock()
	t.plan.Windows = append(t.plan.Windows, FaultWindow{Conn: conn, From: from, To: to, Mode: mode})
	t.mu.Unlock()
}

// report publishes an event without ever blocking a data-path call; a
// full channel drops the event (the counterparty is not draining).
func (t *FaultTransport) report(err error) {
	select {
	case t.errs <- err:
	default:
	}
}

// window returns the scripted fault mode covering (conn, now), if any.
func (t *FaultTransport) window(conn int, now float64) (FaultMode, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range t.plan.Windows {
		if (w.Conn == conn || w.Conn < 0) && now >= w.From && now < w.To {
			return w.Mode, true
		}
	}
	return 0, false
}

// faultLBConn applies the plan to every data- and control-plane call
// on one wrapped conn.
type faultLBConn struct {
	t     *FaultTransport
	inner LBConn
	idx   int

	mu  sync.Mutex
	rng *rand.Rand
}

// injected builds the transient error a faulted call returns and
// publishes it on the transport's event channel.
func (c *faultLBConn) injected(method string, mode FaultMode) error {
	err := TransientTransportError(
		fmt.Errorf("cluster: injected %s on conn %d %s", mode, c.idx, method))
	c.t.report(err)
	return err
}

// gate decides this call's fate before the inner conn sees it. It
// returns (dropResponse, err): a non-nil err means the request is
// lost (scripted sever/partition or a random request drop); a true
// dropResponse means the call must run but its reply is discarded.
func (c *faultLBConn) gate(ctx context.Context, method string) (bool, error) {
	plan := &c.t.plan
	now := 0.0
	if plan.Clock != nil {
		now = plan.Clock.Now()
	}
	if mode, ok := c.t.window(c.idx, now); ok {
		if mode == FaultDropResponses {
			return true, nil
		}
		return false, c.injected(method, mode)
	}
	var dropReq, dropResp, delay bool
	if plan.DropRequestProb > 0 || plan.DropResponseProb > 0 || plan.LatencyProb > 0 {
		c.mu.Lock()
		dropReq = plan.DropRequestProb > 0 && c.rng.Float64() < plan.DropRequestProb
		if !dropReq {
			dropResp = plan.DropResponseProb > 0 && c.rng.Float64() < plan.DropResponseProb
			delay = plan.LatencyProb > 0 && c.rng.Float64() < plan.LatencyProb
		}
		c.mu.Unlock()
	}
	if dropReq {
		return false, c.injected(method, FaultDropRequests)
	}
	if delay && plan.Clock != nil {
		plan.Clock.WaitUntil(ctx, plan.Clock.Now()+plan.LatencySecs, nil)
	}
	return dropResp, nil
}

// run wraps one call with the gate and the response-drop outcome.
func (c *faultLBConn) run(ctx context.Context, method string, call func() error) error {
	dropResp, err := c.gate(ctx, method)
	if err != nil {
		return err
	}
	err = call()
	if dropResp {
		// The server acted; the caller must not learn the outcome.
		return c.injected(method, FaultDropResponses)
	}
	return err
}

func (c *faultLBConn) SubmitBatch(ctx context.Context, req SubmitRequest) error {
	return c.run(ctx, "submit-batch", func() error { return c.inner.SubmitBatch(ctx, req) })
}

func (c *faultLBConn) PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) error {
	return c.run(ctx, "poll-results", func() error {
		return c.inner.PollResultsInto(ctx, req, resp)
	})
}

func (c *faultLBConn) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error {
	return c.run(ctx, "pull", func() error {
		return c.inner.PullInto(ctx, req, resp)
	})
}

func (c *faultLBConn) Complete(ctx context.Context, req CompleteRequest) error {
	return c.run(ctx, "complete", func() error { return c.inner.Complete(ctx, req) })
}

func (c *faultLBConn) Configure(ctx context.Context, req ConfigureLBRequest) error {
	return c.run(ctx, "configure", func() error { return c.inner.Configure(ctx, req) })
}

func (c *faultLBConn) Stats(ctx context.Context) (LBStats, error) {
	var out LBStats
	err := c.run(ctx, "stats", func() error {
		var e error
		out, e = c.inner.Stats(ctx)
		return e
	})
	if err != nil {
		return LBStats{}, err
	}
	return out, nil
}
