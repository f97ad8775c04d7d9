package cluster

import (
	"sync"

	"diffserve/internal/queueing"
)

// This file implements the pooling half of the zero-allocation wire
// path: a bounded intern table for hot wire strings, typed pools for
// the request/response structs the framed TCP server decodes into,
// and ReleaseMessage, the single entry point that returns a message's
// backing storage to those pools.
//
// Ownership discipline (see also the "Buffer ownership" section of
// the package doc):
//
//   - A message obtained from a pooled decode (the TCP server's
//     dispatch path) is owned by exactly one goroutine. Handlers must
//     copy anything they retain past return — strings are immutable
//     and always safe; feature slices are interned into the metrics
//     collector's arena (Collector.InternFeatures) before they outlive
//     the handler.
//   - ReleaseMessage must be called only on messages the caller owns
//     exclusively, i.e. ones produced by a pooled decode. Releasing a
//     message whose slices alias shared storage (a worker's imagespace
//     cache, the collector arena) would hand shared memory to the next
//     decode; the poolpoison build tag exists to make exactly that
//     class of bug fail loudly in tests.
//   - Released messages keep their slice capacity (dirty), so the next
//     decode into them is allocation-free; every decoded field is
//     overwritten, so stale contents never leak.

// internLimit bounds the intern table so adversarial wire input (the
// fuzzers feed arbitrary strings) cannot grow it without bound. Real
// traffic uses a handful of role/pool/variant names.
const internLimit = 1024

var (
	internMu sync.RWMutex
	interns  = map[string]string{}
)

// internString returns a canonical string for b, allocating only the
// first time a value is seen (up to internLimit distinct values).
func internString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	internMu.RLock()
	s, ok := interns[string(b)] // map lookup by []byte key does not allocate
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if len(interns) < internLimit {
		interns[s] = s
	}
	internMu.Unlock()
	return s
}

// Typed message pools. Only the TCP dispatch path acquires from
// these; anyone may return messages via ReleaseMessage as long as
// they own them.
var (
	submitRequestPool   = sync.Pool{New: func() interface{} { return new(SubmitRequest) }}
	pullRequestPool     = sync.Pool{New: func() interface{} { return new(PullRequest) }}
	pullResponsePool    = sync.Pool{New: func() interface{} { return new(PullResponse) }}
	completeRequestPool = sync.Pool{New: func() interface{} { return new(CompleteRequest) }}
	resultsRequestPool  = sync.Pool{New: func() interface{} { return new(ResultsRequest) }}
	resultsResponsePool = sync.Pool{New: func() interface{} { return new(ResultsResponse) }}
	confLBRequestPool   = sync.Pool{New: func() interface{} { return new(ConfigureLBRequest) }}
	confWorkerPool      = sync.Pool{New: func() interface{} { return new(ConfigureWorkerRequest) }}
)

func getSubmitRequest() *SubmitRequest     { return submitRequestPool.Get().(*SubmitRequest) }
func getPullRequest() *PullRequest         { return pullRequestPool.Get().(*PullRequest) }
func getPullResponse() *PullResponse       { return pullResponsePool.Get().(*PullResponse) }
func getCompleteRequest() *CompleteRequest { return completeRequestPool.Get().(*CompleteRequest) }
func getResultsRequest() *ResultsRequest   { return resultsRequestPool.Get().(*ResultsRequest) }
func getResultsResponse() *ResultsResponse { return resultsResponsePool.Get().(*ResultsResponse) }
func getConfigureLBRequest() *ConfigureLBRequest {
	return confLBRequestPool.Get().(*ConfigureLBRequest)
}
func getConfigureWorkerRequest() *ConfigureWorkerRequest {
	return confWorkerPool.Get().(*ConfigureWorkerRequest)
}

// ReleaseMessage returns a wire message's backing storage to the
// package pools so the next pooled decode reuses it. It is safe only
// when the caller owns the message exclusively — in practice, when
// the message came from a pooled decode (the TCP server acquires and
// releases automatically around each handler; most callers never need
// this). Unknown types are a no-op.
//
// Decoder-owned float slices are kept (and poisoned under the
// poolpoison build tag) for reuse; outbound result messages instead
// drop their Features pointers, which alias the collector's immutable
// arena and must never become decode targets.
func ReleaseMessage(v interface{}) {
	switch m := v.(type) {
	case *SubmitRequest:
		qs := m.Queries
		poisonQueries(qs)
		*m = SubmitRequest{Queries: qs[:0]}
		submitRequestPool.Put(m)
	case *PullRequest:
		*m = PullRequest{}
		pullRequestPool.Put(m)
	case *PullResponse:
		qs := m.Queries
		poisonQueries(qs)
		*m = PullResponse{Queries: qs[:0]}
		pullResponsePool.Put(m)
	case *CompleteRequest:
		items := m.Items
		for i := range items {
			poisonFloats(items[i].Features)
		}
		*m = CompleteRequest{Items: items[:0]}
		completeRequestPool.Put(m)
	case *ResultsRequest:
		*m = ResultsRequest{}
		resultsRequestPool.Put(m)
	case *ResultsResponse:
		// Result Features alias the collector arena; nil them out so a
		// later decode into this struct can never scribble on it.
		results := m.Results
		for i := range results {
			results[i] = QueryResponse{}
		}
		*m = ResultsResponse{Results: results[:0]}
		resultsResponsePool.Put(m)
	case *ConfigureLBRequest:
		*m = ConfigureLBRequest{}
		confLBRequestPool.Put(m)
	case *ConfigureWorkerRequest:
		*m = ConfigureWorkerRequest{}
		confWorkerPool.Put(m)
	}
}

// queueItemPool recycles the scratch slices PullInto uses to dequeue
// batches, so the hot pull path never allocates for the dequeue.
var queueItemPool = sync.Pool{
	New: func() interface{} {
		s := make([]queueing.Item, 0, 64)
		return &s
	},
}

func getItemScratch() *[]queueing.Item { return queueItemPool.Get().(*[]queueing.Item) }

func putItemScratch(s *[]queueing.Item) {
	*s = (*s)[:0]
	queueItemPool.Put(s)
}
