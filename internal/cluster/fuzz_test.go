package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"

	"testing"
)

// fuzzTargets enumerates the binary codec's message types as fresh
// zero-value constructors.
func fuzzTargets() []func() interface{} {
	return []func() interface{}{
		func() interface{} { return new(QueryMsg) },
		func() interface{} { return new(QueryResponse) },
		func() interface{} { return new(PullRequest) },
		func() interface{} { return new(PullResponse) },
		func() interface{} { return new(CompleteRequest) },
		func() interface{} { return new(ConfigureWorkerRequest) },
		func() interface{} { return new(ConfigureLBRequest) },
		func() interface{} { return new(WorkerStats) },
		func() interface{} { return new(LBStats) },
		func() interface{} { return new(SubmitRequest) },
		func() interface{} { return new(ResultsRequest) },
		func() interface{} { return new(ResultsResponse) },
	}
}

// dirtyTargets mirrors fuzzTargets with targets that already hold
// data — the pooled-struct case. Decoding into one must produce the
// same message as decoding into a fresh struct: stale lengths, stale
// values, and stale nil-ness may not leak through capacity reuse.
func dirtyTargets() []func() interface{} {
	stale := func() []float64 { return []float64{99, 98, 97, 96, 95, 94, 93} }
	return []func() interface{}{
		func() interface{} { return &QueryMsg{ID: -1, Arrival: 99} },
		func() interface{} { return &QueryResponse{ID: -1, Variant: "stale", Features: stale(), Deferred: true} },
		func() interface{} { return &PullRequest{WorkerID: -1, Role: "stale", Max: 99} },
		func() interface{} {
			return &PullResponse{Queries: []QueryMsg{{ID: -1}, {ID: -2}, {ID: -3}}, LeaseDeadline: 99, QueuedAt: 99}
		},
		func() interface{} {
			return &CompleteRequest{WorkerID: -1, Role: "stale", LeaseDeadline: 99,
				Items: []CompleteItem{{ID: -1, Features: stale()}, {ID: -2, Features: stale()}}}
		},
		func() interface{} { return &ConfigureWorkerRequest{Role: "stale", Batch: 99} },
		func() interface{} { return &ConfigureLBRequest{Threshold: 99, SplitProb: 99} },
		func() interface{} { return &WorkerStats{Role: "stale"} },
		func() interface{} { return &LBStats{Now: 99, Completed: 99, Reclaims: 99} },
		func() interface{} { return &SubmitRequest{Queries: []QueryMsg{{ID: -1}, {ID: -2}}} },
		func() interface{} { return &ResultsRequest{Max: 99, Wait: 99} },
		func() interface{} {
			return &ResultsResponse{Results: []QueryResponse{{ID: -1, Variant: "stale", Features: stale()}}}
		},
	}
}

// FuzzCodecRoundTrip feeds arbitrary bytes to the binary codec's
// decoder for every message type. Raw network bytes reach this
// decoder on the TCP transport, so arbitrary input must produce a
// clean error — never a panic or a huge allocation — and anything
// that does decode must survive a re-encode/re-decode round trip
// unchanged.
func FuzzCodecRoundTrip(f *testing.F) {
	// Seed with one valid encoding per message type, plus hostile
	// length prefixes.
	seeds := []interface{}{
		&QueryMsg{ID: 7, Arrival: 12.5},
		&QueryResponse{ID: 9, Variant: "sdturbo", Features: []float64{1, 2}, Confidence: 0.875, Deferred: true},
		&PullRequest{WorkerID: 3, Role: "light", Max: 8, Wait: 0.25},
		&PullResponse{Queries: []QueryMsg{{ID: 1, Arrival: 2}}, LeaseDeadline: 4.5, QueuedAt: 2.25},
		&CompleteRequest{WorkerID: 1, Role: "heavy", LeaseDeadline: 6.25, Items: []CompleteItem{{ID: 4, Variant: "sdv15", Features: []float64{3}}}},
		&ConfigureWorkerRequest{Role: "light", Batch: 8},
		&ConfigureLBRequest{Threshold: 0.7, SplitProb: 0.25},
		&WorkerStats{Role: "heavy"},
		&LBStats{Now: 100, LightQueueLen: 3, Completed: 50, InFlight: 4, Reclaims: 2, ShedRedelivery: 1, LateCompletions: 3, DegradedShards: 1},
		&SubmitRequest{Queries: []QueryMsg{{ID: 5, Arrival: 1}}},
		&ResultsRequest{Max: 64, Wait: 2},
		&ResultsResponse{Results: []QueryResponse{{ID: 6, Variant: "sdturbo"}}},
	}
	for _, msg := range seeds {
		data, err := CodecBinary.Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A declared element count of ~2^60: the decoder must reject it
	// by bounds-checking against the remaining bytes, not allocate.
	hostile := []byte{tagSubmitRequest}
	hostile = binary.AppendUvarint(hostile, 1<<60)
	f.Add(hostile)
	f.Add([]byte{})
	// A membership reply as peers that still served it encoded one: its
	// tag (13) is retired, so every target must reject it cleanly.
	f.Add([]byte{13, 4, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		dirty := dirtyTargets()
		for i, mk := range fuzzTargets() {
			v := mk()
			if err := CodecBinary.Unmarshal(data, v); err != nil {
				continue // rejected cleanly
			}
			out, err := CodecBinary.Marshal(v)
			if err != nil {
				t.Fatalf("decoded %T does not re-encode: %v", v, err)
			}
			v2 := mk()
			if err := CodecBinary.Unmarshal(out, v2); err != nil {
				t.Fatalf("re-encoded %T does not decode: %v", v, err)
			}
			// Compare the re-encodings, not the structs: NaN payloads
			// round-trip bit-faithfully but defeat reflect.DeepEqual.
			out2, err := CodecBinary.Marshal(v2)
			if err != nil {
				t.Fatalf("second encode of %T failed: %v", v, err)
			}
			if !bytes.Equal(out, out2) {
				t.Fatalf("round trip diverged for %T:\n  first:  %x (%+v)\n  second: %x (%+v)", v, out, v, out2, v2)
			}
			// Decode the canonical bytes into a dirty, pooled-style
			// target: it must re-encode identically to the fresh decode.
			dv := dirty[i]()
			if err := CodecBinary.Unmarshal(out, dv); err != nil {
				t.Fatalf("%T does not decode into a dirty target: %v", v, err)
			}
			out3, err := CodecBinary.Marshal(dv)
			if err != nil {
				t.Fatalf("dirty-target %T does not re-encode: %v", v, err)
			}
			if !bytes.Equal(out, out3) {
				t.Fatalf("dirty-target decode diverged for %T:\n  fresh: %x (%+v)\n  dirty: %x (%+v)", v, out, v2, out3, dv)
			}
		}
	})
}

// FuzzDecodeFrame feeds arbitrary byte streams to the TCP frame
// reader. Invalid frames must error without panicking, and a lying
// length prefix must not force an allocation beyond the bytes that
// actually arrived (the declared length is capped and the buffer
// grows incrementally).
func FuzzDecodeFrame(f *testing.F) {
	// Valid frames, a frame followed by garbage, and hostile length
	// prefixes.
	mkFrame := func(kind, method byte, id uint64, msg interface{}, errText string) []byte {
		b, err := appendFrame(nil, kind, method, id, msg, errText)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := mkFrame(frameRequest, methodPull, 1, &PullRequest{Role: "light", Max: 4}, "")
	f.Add(valid)
	f.Add(mkFrame(frameRequest, methodSubmit, 2, &SubmitRequest{Queries: []QueryMsg{{ID: 1}}}, ""))
	f.Add(mkFrame(frameResponse, methodLBStats, 3, &LBStats{Completed: 5}, ""))
	f.Add(mkFrame(frameError, methodComplete, 4, nil, "boom"))
	// Lease-era frames: a pull response carrying its lease deadline and
	// queue stamp, and a completion echoing the deadline.
	f.Add(mkFrame(frameResponse, methodPull, 5,
		&PullResponse{Queries: []QueryMsg{{ID: 2, Arrival: 1.5}}, LeaseDeadline: 9.75, QueuedAt: 1.625}, ""))
	f.Add(mkFrame(frameRequest, methodComplete, 6,
		&CompleteRequest{WorkerID: 2, Role: "light", LeaseDeadline: 9.75,
			Items: []CompleteItem{{ID: 2, Arrival: 1.5, Variant: "sdturbo", Confidence: 0.5}}}, ""))
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad, 0xbe, 0xef))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 1, 1}) // 4 GiB declared length
	f.Add([]byte{0, 0, 0, 0})                      // body shorter than header
	oversize := make([]byte, 4)
	binary.BigEndian.PutUint32(oversize, maxFrameBody+1)
	f.Add(oversize)

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for frames := 0; frames < 16; frames++ {
			fr, nbuf, err := readFrame(br, buf[:0])
			buf = nbuf
			// The body buffer may only ever hold bytes that actually
			// arrived (plus append's geometric growth slack): a lying
			// length prefix must not translate into an allocation.
			if cap(buf) > 2*len(data)+frameReadChunk {
				t.Fatalf("frame buffer grew to %dB for %dB of input", cap(buf), len(data))
			}
			if err != nil {
				return
			}
			if fr.kind < frameRequest || fr.kind > frameError {
				t.Fatalf("invalid kind %d passed validation", fr.kind)
			}
			if len(fr.payload) > maxFrameBody {
				t.Fatalf("payload %dB exceeds the frame cap", len(fr.payload))
			}
		}
	})
}
