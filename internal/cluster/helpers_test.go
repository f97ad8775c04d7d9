package cluster

import "context"

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
