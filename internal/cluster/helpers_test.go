package cluster

import (
	"context"
	"testing"
	"time"
)

// pull is the by-value form of conn.PullInto the tests read: a fresh
// response per call, returned next to the error (an in-process pull
// cancelled mid-call returns both).
func pull(ctx context.Context, conn LBConn, req PullRequest) (PullResponse, error) {
	var resp PullResponse
	err := conn.PullInto(ctx, req, &resp)
	return resp, err
}

// pollResults is pull for conn.PollResultsInto.
func pollResults(ctx context.Context, conn LBConn, req ResultsRequest) (ResultsResponse, error) {
	var resp ResultsResponse
	err := conn.PollResultsInto(ctx, req, &resp)
	return resp, err
}

// waitUntil polls cond every few milliseconds until it holds or the
// deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
