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
// absolute bytes/query recorded in PERFORMANCE.md.
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

// BenchmarkWirePath measures one full data-path cycle per op — an
// 8-query batch submitted, pulled, completed, and its results
// collected — through each transport. Divide B/op and allocs/op by 8
// for per-query numbers.
func BenchmarkWirePath(b *testing.B) {
	for _, name := range []string{TransportTCP, TransportInproc} {
		b.Run(name, func(b *testing.B) {
			tp, err := NewTransport(name)
			if err != nil {
				b.Fatal(err)
			}
			defer tp.Close()
			lb := NewLBServer(LBConfig{
				Mode: loadbalancer.ModeCascade, SLO: 1e9,
				LightMinExec: 0.1, HeavyMinExec: 1.78,
				Clock: NewClock(1), Seed: 1,
			})
			conn, err := tp.ServeLB(lb)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			proto := benchCompleteRequest()
			queries := make([]QueryMsg, len(proto.Items))
			items := make([]CompleteItem, len(proto.Items))
			// Persistent response structs: the Into calls decode into
			// their existing capacity, so a steady-state client
			// allocates nothing per cycle.
			var pulled PullResponse
			var results ResultsResponse

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range queries {
					id := i*len(queries) + j
					// Zero arrival: the LB stamps the current trace
					// time, keeping queries inside the SLO horizon
					// however long the benchmark runs.
					queries[j] = QueryMsg{ID: id, Arrival: 0}
					items[j] = proto.Items[j]
					items[j].ID = id
					items[j].Arrival = 0.001
				}
				if err := conn.SubmitBatch(ctx, SubmitRequest{Queries: queries}); err != nil {
					b.Fatal(err)
				}
				if err := conn.PullInto(ctx, PullRequest{Role: "light", Max: len(queries), Wait: 10}, &pulled); err != nil {
					b.Fatal(err)
				}
				if len(pulled.Queries) != len(queries) {
					b.Fatalf("pulled %d of %d", len(pulled.Queries), len(queries))
				}
				if err := conn.Complete(ctx, CompleteRequest{WorkerID: 0, Role: "light", Items: items}); err != nil {
					b.Fatal(err)
				}
				got := 0
				for got < len(queries) {
					if err := conn.PollResultsInto(ctx, ResultsRequest{Max: len(queries), Wait: 10}, &results); err != nil {
						b.Fatal(err)
					}
					if len(results.Results) == 0 {
						b.Fatal("no results")
					}
					got += len(results.Results)
				}
			}
		})
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
