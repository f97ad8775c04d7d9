package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

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

// RetryPolicy bounds the exponential backoff a retrying conn applies
// to failed calls. Zero fields take the defaults noted per field; the
// zero policy as a whole is a sane client-side stance (4 tries, 5 ms
// doubling to 250 ms, full attempts-left jitter).
type RetryPolicy struct {
	// Attempts is the total number of tries per call, first included
	// (0 defaults to 4).
	Attempts int
	// Base is the backoff after the first failure; it doubles per
	// retry (0 defaults to 5 ms).
	Base time.Duration
	// Cap ceilings the backoff growth (0 defaults to 250 ms).
	Cap time.Duration
	// AttemptTimeout, when positive, derives a context deadline for
	// each individual attempt, so one hung call cannot eat the whole
	// retry budget. Zero passes the caller's context through.
	AttemptTimeout time.Duration
	// Seed drives the backoff jitter deterministically (same seed,
	// same jitter sequence).
	Seed uint64
}

func (p RetryPolicy) norm() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 4
	}
	if p.Base <= 0 {
		p.Base = 5 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 250 * time.Millisecond
	}
	return p
}

// retryLBConn wraps an LBConn with bounded, jittered exponential
// backoff on the data-path calls (SubmitBatch, PollResultsInto,
// PullInto, Complete). It works over both transports:
// TCP conns surface redial failures, and the in-process conn never
// fails (the wrapper is then a pass-through).
//
// Retried calls stay exactly-once where it matters: the server
// resolves each query at most once regardless of how many times a
// request is delivered (duplicate submits re-queue, but the first
// resolution is final and later completions no-op), so retrying
// cannot double-resolve. What a retry cannot recover is a response
// lost after the server acted — a PollResultsInto reply dropped in
// transit is gone from the client's view (the server already handed
// the results out); run accounting that must survive that failure
// mode reads the server-side collectors instead.
type retryLBConn struct {
	inner LBConn
	pol   RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetryingLBConn wraps inner with the given retry policy.
func NewRetryingLBConn(inner LBConn, pol RetryPolicy) LBConn {
	pol = pol.norm()
	return &retryLBConn{
		inner: inner,
		pol:   pol,
		rng:   rand.New(rand.NewSource(int64(pol.Seed) ^ 0x5ebf6a42)),
	}
}

// backoff returns the jittered sleep before retry number n (n >= 1):
// Base doubling per retry, capped, scaled by a uniform [0.5, 1.5)
// factor so synchronized clients fan out.
func (c *retryLBConn) backoff(n int) time.Duration {
	d := c.pol.Base << uint(n-1)
	if d > c.pol.Cap || d <= 0 {
		d = c.pol.Cap
	}
	c.mu.Lock()
	f := 0.5 + c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// do runs call with the policy's attempt deadline and retries failures
// until the attempt budget or the caller's context runs out.
func (c *retryLBConn) do(ctx context.Context, call func(context.Context) error) error {
	var err error
	for n := 1; ; n++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if c.pol.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, c.pol.AttemptTimeout)
		}
		err = call(actx)
		cancel()
		if err == nil || n >= c.pol.Attempts || ctx.Err() != nil {
			return err
		}
		t := time.NewTimer(c.backoff(n))
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
	}
}

func (c *retryLBConn) SubmitBatch(ctx context.Context, req SubmitRequest) error {
	return c.do(ctx, func(ctx context.Context) error { return c.inner.SubmitBatch(ctx, req) })
}

func (c *retryLBConn) PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) error {
	return c.do(ctx, func(ctx context.Context) error {
		return c.inner.PollResultsInto(ctx, req, resp)
	})
}

func (c *retryLBConn) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error {
	return c.do(ctx, func(ctx context.Context) error {
		return c.inner.PullInto(ctx, req, resp)
	})
}

func (c *retryLBConn) Complete(ctx context.Context, req CompleteRequest) error {
	return c.do(ctx, func(ctx context.Context) error { return c.inner.Complete(ctx, req) })
}

func (c *retryLBConn) Configure(ctx context.Context, req ConfigureLBRequest) error {
	return c.inner.Configure(ctx, req)
}

func (c *retryLBConn) Stats(ctx context.Context) (LBStats, error) {
	// Control-plane polls are not retried: the controller has its own
	// cadence, and masking consecutive misses here would defeat its
	// stale-plan failover.
	return c.inner.Stats(ctx)
}
