package cluster

import (
	"math/rand"
	"reflect"
	"testing"
)

// codecRT round-trips a message through a codec into fresh storage.
func codecRT(t *testing.T, c Codec, in, out interface{}) {
	t.Helper()
	data, err := c.Marshal(in)
	if err != nil {
		t.Fatalf("%s marshal %T: %v", c.Name(), in, err)
	}
	if err := c.Unmarshal(data, out); err != nil {
		t.Fatalf("%s unmarshal %T: %v", c.Name(), out, err)
	}
}

// checkParity asserts that both codecs round-trip msg to the same
// value: binary(decode(encode)) == json(decode(encode)). mk must
// return a fresh zero pointer of msg's type.
func checkParity(t *testing.T, msg interface{}, mk func() interface{}) {
	t.Helper()
	fromJSON := mk()
	fromBinary := mk()
	codecRT(t, CodecJSON, msg, fromJSON)
	codecRT(t, CodecBinary, msg, fromBinary)
	if !reflect.DeepEqual(fromJSON, fromBinary) {
		t.Errorf("codec divergence on %T:\n  json:   %+v\n  binary: %+v\n  input:  %+v",
			msg, fromJSON, fromBinary, msg)
	}
}

// randFloats exercises the three slice shapes with distinct wire
// encodings: nil, empty, and populated.
func randFloats(rng *rand.Rand) []float64 {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []float64{}
	default:
		out := make([]float64, rng.Intn(24))
		for i := range out {
			out[i] = rng.NormFloat64() * 1e3
		}
		return out
	}
}

func randString(rng *rand.Rand) string {
	alphabet := []rune("abcdefghijklmnopqrstuvwxyz-éλ日")
	n := rng.Intn(12)
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(out)
}

func randQueryMsg(rng *rand.Rand) QueryMsg {
	return QueryMsg{ID: rng.Intn(1 << 20), Arrival: rng.Float64() * 400}
}

func randQueryResponse(rng *rand.Rand) QueryResponse {
	return QueryResponse{
		ID:         rng.Intn(1 << 20),
		Dropped:    rng.Intn(2) == 0,
		Variant:    randString(rng),
		Features:   randFloats(rng),
		Artifact:   rng.NormFloat64(),
		Confidence: rng.Float64(),
		Deferred:   rng.Intn(2) == 0,
		Arrival:    rng.Float64() * 400,
		Completion: rng.Float64() * 400,
	}
}

func randCompleteItem(rng *rand.Rand) CompleteItem {
	return CompleteItem{
		ID:         rng.Intn(1 << 20),
		Arrival:    rng.Float64() * 400,
		Variant:    randString(rng),
		Features:   randFloats(rng),
		Artifact:   rng.NormFloat64(),
		Confidence: rng.Float64(),
	}
}

func TestCodecParityRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20250610))
	for i := 0; i < 300; i++ {
		m := randQueryMsg(rng)
		checkParity(t, &m, func() interface{} { return new(QueryMsg) })

		qr := randQueryResponse(rng)
		checkParity(t, &qr, func() interface{} { return new(QueryResponse) })

		pr := PullRequest{
			WorkerID: rng.Intn(64), Role: randString(rng), Max: rng.Intn(32),
			Wait: rng.Float64(),
		}
		checkParity(t, &pr, func() interface{} { return new(PullRequest) })

		var pq []QueryMsg
		if n := rng.Intn(5); n > 0 {
			for j := 0; j < n; j++ {
				pq = append(pq, randQueryMsg(rng))
			}
		}
		presp := PullResponse{Queries: pq, LeaseDeadline: rng.Float64() * 400, QueuedAt: rng.Float64() * 400}
		checkParity(t, &presp, func() interface{} { return new(PullResponse) })

		var items []CompleteItem
		if n := rng.Intn(5); n > 0 {
			for j := 0; j < n; j++ {
				items = append(items, randCompleteItem(rng))
			}
		}
		cr := CompleteRequest{WorkerID: rng.Intn(64), Role: randString(rng), Items: items}
		checkParity(t, &cr, func() interface{} { return new(CompleteRequest) })

		cw := ConfigureWorkerRequest{Role: randString(rng), Batch: rng.Intn(32)}
		checkParity(t, &cw, func() interface{} { return new(ConfigureWorkerRequest) })

		cl := ConfigureLBRequest{Threshold: rng.Float64(), SplitProb: rng.Float64()}
		checkParity(t, &cl, func() interface{} { return new(ConfigureLBRequest) })

		ws := WorkerStats{
			ID: rng.Intn(64), Role: randString(rng), Batch: rng.Intn(32),
			Busy: rng.Intn(2) == 0, Batches: rng.Intn(1000), Queries: rng.Intn(10000),
		}
		checkParity(t, &ws, func() interface{} { return new(WorkerStats) })

		lbs := LBStats{
			Now: rng.Float64() * 400, LightQueueLen: rng.Intn(100), HeavyQueueLen: rng.Intn(100),
			LightArrivalRate: rng.Float64() * 40, HeavyArrivalRate: rng.Float64() * 40,
			ArrivalsSinceTick: rng.Intn(100), TimeoutsSinceTick: rng.Intn(100),
			Completed: rng.Intn(100000), Dropped: rng.Intn(1000),
		}
		checkParity(t, &lbs, func() interface{} { return new(LBStats) })

		sr := SubmitRequest{Queries: pq}
		checkParity(t, &sr, func() interface{} { return new(SubmitRequest) })

		rr := ResultsRequest{Max: rng.Intn(1024), Wait: rng.Float64() * 2}
		checkParity(t, &rr, func() interface{} { return new(ResultsRequest) })

		var results []QueryResponse
		if n := rng.Intn(4); n > 0 {
			for j := 0; j < n; j++ {
				results = append(results, randQueryResponse(rng))
			}
		}
		rresp := ResultsResponse{Results: results}
		checkParity(t, &rresp, func() interface{} { return new(ResultsResponse) })
	}
}

func TestBinaryCodecRoundTripExact(t *testing.T) {
	// Binary round trips preserve nil vs empty on every field without
	// omitempty semantics.
	in := CompleteRequest{WorkerID: 3, Role: "light", Items: []CompleteItem{
		{ID: 1, Variant: "sdturbo", Features: nil, Confidence: 0.25},
		{ID: 2, Variant: "sdturbo", Features: []float64{}, Confidence: 0.75},
		{ID: 3, Variant: "sdturbo", Features: []float64{1.5, -2.25, 0}, Artifact: 0.125},
	}}
	var out CompleteRequest
	codecRT(t, CodecBinary, &in, &out)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("binary round trip mutated message:\n  in:  %+v\n  out: %+v", in, out)
	}
	if out.Items[0].Features != nil {
		t.Error("nil features became non-nil")
	}
	if out.Items[1].Features == nil {
		t.Error("empty features became nil")
	}
}

func TestBinaryCodecRejectsMismatchedTag(t *testing.T) {
	data, err := CodecBinary.Marshal(&QueryMsg{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	var lbs LBStats
	if err := CodecBinary.Unmarshal(data, &lbs); err == nil {
		t.Error("decoding a QueryMsg frame as LBStats should fail")
	}
	var q QueryMsg
	if err := CodecBinary.Unmarshal(data[:len(data)-1], &q); err == nil {
		t.Error("truncated frame should fail")
	}
	if err := CodecBinary.Unmarshal(append(data, 0), &q); err == nil {
		t.Error("trailing bytes should fail")
	}
}
