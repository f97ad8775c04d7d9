package cluster

import (
	"context"
	"math/rand"
	"testing"

	"diffserve/internal/loadbalancer"
)

// benchCompleteRequest is a representative hot-path payload: one
// 8-query light batch with 16-dim full-precision features, the shape
// every completion report carries on the Fig-harness trace.
func benchCompleteRequest() *CompleteRequest {
	req := &CompleteRequest{WorkerID: 3, Role: "light"}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		feats := make([]float64, 16)
		for j := range feats {
			feats[j] = rng.NormFloat64()
		}
		req.Items = append(req.Items, CompleteItem{
			ID: 1000 + i, Arrival: 12.25 + float64(i)*0.03125, Variant: "sdturbo",
			Features: feats, Artifact: rng.Float64(), Confidence: rng.Float64(),
		})
	}
	return req
}

// TestWireSizes pins the codecs' relative payload sizes and logs the
// absolute bytes/query recorded in PERFORMANCE.md's "TCP wire and
// codec" section.
func TestWireSizes(t *testing.T) {
	req := benchCompleteRequest()
	sizes := map[string]int{}
	for _, c := range codecs {
		d, err := c.c.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		sizes[c.name] = len(d)
		t.Logf("%-6s CompleteRequest(8x16dim): %d bytes, %.1f bytes/query", c.name, len(d), float64(len(d))/8)
	}
	if sizes["binary"]*2 > sizes["json"] {
		t.Errorf("binary payload %dB is not ≥2x smaller than JSON %dB", sizes["binary"], sizes["json"])
	}
}

// BenchmarkCodecCompleteRequest measures encode+decode of one 8-query
// completion batch per op.
func BenchmarkCodecCompleteRequest(b *testing.B) {
	for _, c := range codecs {
		b.Run(c.name, func(b *testing.B) {
			req := benchCompleteRequest()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := c.c.Marshal(req)
				if err != nil {
					b.Fatal(err)
				}
				var out CompleteRequest
				if err := c.c.Unmarshal(data, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// wirePath is one data-path cycle's rig: an LB served over a
// transport, and the client's and worker's buffers, which persist
// across cycles as a steady-state client's and worker's do.
type wirePath struct {
	conn    LBConn
	queries []QueryMsg
	items   []CompleteItem
	// Persistent response structs: the Into calls decode into their
	// existing capacity, so a steady-state client allocates nothing
	// per cycle.
	pulled  PullResponse
	results ResultsResponse
	cycles  int
}

// newWirePath serves an LB over the named transport; the transport
// closes when the test ends.
func newWirePath(tb testing.TB, transport string) *wirePath {
	tb.Helper()
	tp, err := NewTransport(transport)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tp.Close() })
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 1e9,
		LightMinExec: 0.1, HeavyMinExec: 1.78,
		Clock: NewClock(1), Seed: 1,
	})
	conn, err := tp.ServeLB(lb)
	if err != nil {
		tb.Fatal(err)
	}
	items := benchCompleteRequest().Items
	for j := range items {
		items[j].Arrival = 0.001
	}
	return &wirePath{conn: conn, queries: make([]QueryMsg, len(items)), items: items}
}

// cycle runs one full data-path cycle: an 8-query batch submitted,
// pulled, completed, and its results collected.
func (w *wirePath) cycle(tb testing.TB) {
	ctx := context.Background()
	for j := range w.queries {
		id := w.cycles*len(w.queries) + j
		// Zero arrival: the LB stamps the current trace time, keeping
		// queries inside the SLO horizon however long the cycles run.
		w.queries[j] = QueryMsg{ID: id, Arrival: 0}
		w.items[j].ID = id
	}
	w.cycles++
	if err := w.conn.SubmitBatch(ctx, SubmitRequest{Queries: w.queries}); err != nil {
		tb.Fatal(err)
	}
	if err := w.conn.PullInto(ctx, PullRequest{Role: "light", Max: len(w.queries), Wait: 10}, &w.pulled); err != nil {
		tb.Fatal(err)
	}
	if len(w.pulled.Queries) != len(w.queries) {
		tb.Fatalf("pulled %d of %d", len(w.pulled.Queries), len(w.queries))
	}
	if err := w.conn.Complete(ctx, CompleteRequest{WorkerID: 0, Role: "light", Items: w.items}); err != nil {
		tb.Fatal(err)
	}
	for got := 0; got < len(w.queries); got += len(w.results.Results) {
		if err := w.conn.PollResultsInto(ctx, ResultsRequest{Max: len(w.queries), Wait: 10}, &w.results); err != nil {
			tb.Fatal(err)
		}
		if len(w.results.Results) == 0 {
			tb.Fatal("no results")
		}
	}
}

// BenchmarkWirePath measures one full data-path cycle per op through
// each transport. Divide B/op and allocs/op by 8 for per-query
// numbers.
func BenchmarkWirePath(b *testing.B) {
	for _, name := range []string{TransportTCP, TransportInproc} {
		b.Run(name, func(b *testing.B) {
			w := newWirePath(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.cycle(b)
			}
		})
	}
}

// TestWirePathAllocs pins the zero-allocation wire path at
// BenchmarkWirePath's cycle: over tcp at most 16 allocations per
// 8-query cycle (2 per query; 73 before pooling, PERFORMANCE.md "TCP
// wire and codec"), in process at most 8.
func TestWirePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, c := range []struct {
		transport string
		budget    float64
	}{{TransportTCP, 16}, {TransportInproc, 8}} {
		w := newWirePath(t, c.transport)
		n := testing.AllocsPerRun(200, func() { w.cycle(t) })
		t.Logf("%s: %v allocations per wire cycle", c.transport, n)
		if n > c.budget {
			t.Errorf("%s: %v allocations per wire cycle, budget %v", c.transport, n, c.budget)
		}
	}
}

var benchSink string

// BenchmarkCodecQueryResponse isolates the per-message cost of the
// response path (the most frequent client-facing message).
func BenchmarkCodecQueryResponse(b *testing.B) {
	resp := &QueryResponse{
		ID: 42, Variant: "sdv15", Features: benchCompleteRequest().Items[0].Features,
		Artifact: 0.25, Confidence: 0.875, Deferred: true, Arrival: 10.5, Completion: 12.0,
	}
	for _, c := range codecs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := c.c.Marshal(resp)
				if err != nil {
					b.Fatal(err)
				}
				var out QueryResponse
				if err := c.c.Unmarshal(data, &out); err != nil {
					b.Fatal(err)
				}
				benchSink = out.Variant
			}
		})
	}
}
