package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
)

// CodecBinary is the wire codec: the one encoding of the wire messages
// (wire.go) that any process sends, hand-rolled and length-prefixed
// with no reflection on the hot path. The tcp transport frames its
// output (tcp.go). The tests hold it to an encoding/json reference over
// the messages' json tags: for any message, decode(encode(msg)) yields
// the same value under either.
var CodecBinary = binaryCodec{}

// Message tags: one leading byte per frame so decode mismatches fail
// loudly instead of misreading fields.
const (
	tagQueryMsg = iota + 1
	tagQueryResponse
	tagPullRequest
	tagPullResponse
	tagCompleteRequest
	tagConfigureWorkerRequest
	tagConfigureLBRequest
	tagWorkerStats
	tagLBStats
	tagSubmitRequest
	tagResultsRequest
	tagResultsResponse
)

// binaryCodec is a hand-rolled length-prefixed encoding: uvarints for
// counts and non-negative ints, zigzag varints for signed ints, fixed
// 8-byte little-endian IEEE-754 for floats, and length-prefixed bytes
// for strings and slices. Encoding and decoding dispatch on a type
// switch over pointers to the wire-message types — no reflection.
type binaryCodec struct{}

func (c binaryCodec) Marshal(v interface{}) ([]byte, error) {
	return c.MarshalAppend(make([]byte, 0, binarySizeHint(v)), v)
}

// binarySizeHint presizes the encode buffer for a message so the
// append chain rarely regrows it.
func binarySizeHint(v interface{}) int {
	switch m := v.(type) {
	case *QueryResponse:
		return 64 + 8*len(m.Features)
	case *PullResponse:
		return 8 + 24*len(m.Queries)
	case *CompleteRequest:
		return 16 + 192*len(m.Items)
	case *SubmitRequest:
		return 8 + 24*len(m.Queries)
	case *ResultsResponse:
		return 8 + 96*len(m.Results)
	default:
		return 64
	}
}

// MarshalAppend appends v's binary encoding to b and returns the
// extended slice. The framed TCP transport uses it to encode payloads
// directly into a pooled frame buffer, with no intermediate copy.
func (binaryCodec) MarshalAppend(b []byte, v interface{}) ([]byte, error) {
	switch m := v.(type) {
	case *QueryMsg:
		return appendQueryMsg(append(b, tagQueryMsg), m), nil
	case *QueryResponse:
		return appendQueryResponse(b, m), nil
	case *PullRequest:
		return appendPullRequest(b, m), nil
	case *PullResponse:
		return appendPullResponse(b, m), nil
	case *CompleteRequest:
		return appendCompleteRequest(b, m), nil
	case *ConfigureWorkerRequest:
		return appendConfigureWorker(b, m), nil
	case *ConfigureLBRequest:
		return appendConfigureLB(b, m), nil
	case *WorkerStats:
		return appendWorkerStats(b, m), nil
	case *LBStats:
		return appendLBStats(b, m), nil
	case *SubmitRequest:
		return appendSubmitRequest(b, m), nil
	case *ResultsRequest:
		return appendResultsRequest(b, m), nil
	case *ResultsResponse:
		return appendResultsResponse(b, m), nil
	}
	return nil, fmt.Errorf("cluster: binary codec cannot marshal %T", v)
}

func (binaryCodec) Unmarshal(data []byte, v interface{}) error {
	d := &bdec{buf: data}
	switch m := v.(type) {
	case *QueryMsg:
		d.tag(tagQueryMsg)
		readQueryMsg(d, m)
	case *QueryResponse:
		d.tag(tagQueryResponse)
		readQueryResponse(d, m)
	case *PullRequest:
		d.tag(tagPullRequest)
		readPullRequest(d, m)
	case *PullResponse:
		d.tag(tagPullResponse)
		readPullResponse(d, m)
	case *CompleteRequest:
		d.tag(tagCompleteRequest)
		readCompleteRequest(d, m)
	case *ConfigureWorkerRequest:
		d.tag(tagConfigureWorkerRequest)
		m.Role = d.str()
		m.Batch = d.int()
	case *ConfigureLBRequest:
		d.tag(tagConfigureLBRequest)
		m.Threshold = d.f64()
		m.SplitProb = d.f64()
	case *WorkerStats:
		d.tag(tagWorkerStats)
		m.Role = d.str()
	case *LBStats:
		d.tag(tagLBStats)
		readLBStats(d, m)
	case *SubmitRequest:
		d.tag(tagSubmitRequest)
		m.Queries = readQueryMsgs(d, m.Queries)
	case *ResultsRequest:
		d.tag(tagResultsRequest)
		m.Max = d.int()
		m.Wait = d.f64()
	case *ResultsResponse:
		d.tag(tagResultsResponse)
		readResultsResponse(d, m)
	default:
		return fmt.Errorf("cluster: binary codec cannot unmarshal into %T", v)
	}
	if d.err != nil {
		return fmt.Errorf("cluster: binary decode %T: %w", v, d.err)
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("cluster: binary decode %T: %d trailing bytes", v, len(d.buf)-d.off)
	}
	return nil
}

// --- encode helpers (append-style, zero intermediate allocation) ---

func appendInt(b []byte, v int) []byte     { return binary.AppendVarint(b, int64(v)) }
func appendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendFloats length-prefixes a float slice with len+1 so a nil
// slice (0) stays distinct from an empty one (1) — matching JSON's
// null vs [] round-trip semantics.
func appendFloats(b []byte, v []float64) []byte {
	if v == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(v))+1)
	for _, f := range v {
		b = appendF64(b, f)
	}
	return b
}

// appendQueryMsg encodes a QueryMsg's fields, untagged: the one
// encode site of the struct, whether it travels alone (MarshalAppend
// writes the tag) or as an element of a SubmitRequest or PullResponse.
func appendQueryMsg(b []byte, m *QueryMsg) []byte {
	b = appendInt(b, m.ID)
	return appendF64(b, m.Arrival)
}

// appendQueryMsgs encodes a query slice, length-prefixed with len+1 so
// nil stays distinct from empty (see appendFloats).
func appendQueryMsgs(b []byte, qs []QueryMsg) []byte {
	if qs == nil {
		return appendUint(b, 0)
	}
	b = appendUint(b, uint64(len(qs))+1)
	for i := range qs {
		b = appendQueryMsg(b, &qs[i])
	}
	return b
}

func appendQueryResponse(b []byte, m *QueryResponse) []byte {
	b = append(b, tagQueryResponse)
	b = appendInt(b, m.ID)
	b = appendBool(b, m.Dropped)
	b = appendStr(b, m.Variant)
	// Features carries JSON's omitempty semantics: an empty slice is
	// indistinguishable from an absent field on the JSON wire, so the
	// binary codec normalizes empty to nil the same way.
	feats := m.Features
	if len(feats) == 0 {
		feats = nil
	}
	b = appendFloats(b, feats)
	b = appendF64(b, m.Artifact)
	b = appendF64(b, m.Confidence)
	b = appendBool(b, m.Deferred)
	b = appendF64(b, m.Arrival)
	return appendF64(b, m.Completion)
}

func appendPullRequest(b []byte, m *PullRequest) []byte {
	b = append(b, tagPullRequest)
	b = appendInt(b, m.WorkerID)
	b = appendStr(b, m.Role)
	b = appendInt(b, m.Max)
	return appendF64(b, m.Wait)
}

func appendPullResponse(b []byte, m *PullResponse) []byte {
	b = append(b, tagPullResponse)
	b = appendQueryMsgs(b, m.Queries)
	b = appendF64(b, m.LeaseDeadline)
	return appendF64(b, m.QueuedAt)
}

func appendCompleteItem(b []byte, m *CompleteItem) []byte {
	b = appendInt(b, m.ID)
	b = appendF64(b, m.Arrival)
	b = appendStr(b, m.Variant)
	b = appendFloats(b, m.Features)
	b = appendF64(b, m.Artifact)
	return appendF64(b, m.Confidence)
}

func appendCompleteRequest(b []byte, m *CompleteRequest) []byte {
	b = append(b, tagCompleteRequest)
	b = appendInt(b, m.WorkerID)
	b = appendStr(b, m.Role)
	if m.Items == nil {
		b = appendUint(b, 0)
	} else {
		b = appendUint(b, uint64(len(m.Items))+1)
		for i := range m.Items {
			b = appendCompleteItem(b, &m.Items[i])
		}
	}
	return appendF64(b, m.LeaseDeadline)
}

func appendConfigureWorker(b []byte, m *ConfigureWorkerRequest) []byte {
	b = append(b, tagConfigureWorkerRequest)
	b = appendStr(b, m.Role)
	return appendInt(b, m.Batch)
}

func appendConfigureLB(b []byte, m *ConfigureLBRequest) []byte {
	b = append(b, tagConfigureLBRequest)
	b = appendF64(b, m.Threshold)
	return appendF64(b, m.SplitProb)
}

func appendWorkerStats(b []byte, m *WorkerStats) []byte {
	b = append(b, tagWorkerStats)
	return appendStr(b, m.Role)
}

func appendLBStats(b []byte, m *LBStats) []byte {
	b = append(b, tagLBStats)
	b = appendF64(b, m.Now)
	b = appendInt(b, m.LightQueueLen)
	b = appendInt(b, m.HeavyQueueLen)
	b = appendF64(b, m.LightArrivalRate)
	b = appendF64(b, m.HeavyArrivalRate)
	b = appendInt(b, m.ArrivalsSinceTick)
	b = appendInt(b, m.TimeoutsSinceTick)
	b = appendInt(b, m.Completed)
	b = appendInt(b, m.Dropped)
	b = appendInt(b, m.InFlight)
	b = appendInt(b, m.Reclaims)
	b = appendInt(b, m.ShedRedelivery)
	b = appendInt(b, m.LateCompletions)
	return appendInt(b, m.DegradedShards)
}

func appendSubmitRequest(b []byte, m *SubmitRequest) []byte {
	b = append(b, tagSubmitRequest)
	return appendQueryMsgs(b, m.Queries)
}

func appendResultsRequest(b []byte, m *ResultsRequest) []byte {
	b = append(b, tagResultsRequest)
	b = appendInt(b, m.Max)
	return appendF64(b, m.Wait)
}

func appendResultsResponse(b []byte, m *ResultsResponse) []byte {
	b = append(b, tagResultsResponse)
	if m.Results == nil {
		return appendUint(b, 0)
	}
	b = appendUint(b, uint64(len(m.Results))+1)
	for i := range m.Results {
		b = appendQueryResponse(b, &m.Results[i])
	}
	return b
}

// --- decode helpers ---

type bdec struct {
	buf []byte
	off int
	err error
}

func (d *bdec) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at offset %d", msg, d.off)
	}
}

func (d *bdec) tag(want byte) {
	if d.err != nil {
		return
	}
	if d.off >= len(d.buf) {
		d.fail("truncated tag")
		return
	}
	got := d.buf[d.off]
	d.off++
	if got != want {
		d.fail(fmt.Sprintf("message tag %d, want %d", got, want))
	}
}

func (d *bdec) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return int(v)
}

func (d *bdec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *bdec) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("truncated bool")
		return false
	}
	v := d.buf[d.off]
	d.off++
	return v != 0
}

func (d *bdec) str() string {
	n := d.uint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail("truncated string")
		return ""
	}
	// Wire strings are low-cardinality (roles, pool names, variant
	// names), so interning makes repeat decodes allocation-free.
	s := internString(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// floatsInto decodes a length-prefixed float slice, reusing prev's
// backing array when it has the capacity. Decoding into a message
// that already carries a feature buffer from an earlier frame is the
// buffer-reuse half of the zero-allocation wire path; the caller must
// own prev exclusively.
func (d *bdec) floatsInto(prev []float64) []float64 {
	n := d.uint()
	if d.err != nil || n == 0 {
		return nil
	}
	n--
	// Division form avoids overflow on an adversarial length prefix.
	if n > uint64(len(d.buf)-d.off)/8 {
		d.fail("truncated float slice")
		return nil
	}
	out := resize(prev, int(n))
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

// count validates a length-prefixed element count against the bytes
// remaining (each element encodes to at least one byte), so a
// corrupted prefix cannot trigger a huge allocation.
func (d *bdec) count() int {
	n := d.uint()
	if d.err != nil || n == 0 {
		return -1 // nil slice
	}
	n--
	if n > uint64(len(d.buf)-d.off) {
		d.fail("slice count exceeds remaining bytes")
		return -1
	}
	return int(n)
}

// resize returns a decode target of length n (a count as d.count
// returns it), reusing s's backing array when it has the room: a
// message decoded into again, pooled or caller-owned, keeps the
// capacity an earlier frame left it. The caller overwrites every
// element, so stale contents never leak. A nil count yields nil and a
// zero count an empty slice, the nil-vs-empty parity with JSON.
func resize[T any](s []T, n int) []T {
	switch {
	case n < 0:
		return nil
	case s != nil && cap(s) >= n:
		return s[:n]
	}
	return make([]T, n)
}

func readQueryMsg(d *bdec, m *QueryMsg) {
	m.ID = d.int()
	m.Arrival = d.f64()
}

func readQueryResponse(d *bdec, m *QueryResponse) {
	m.ID = d.int()
	m.Dropped = d.bool()
	m.Variant = d.str()
	m.Features = d.floatsInto(m.Features)
	m.Artifact = d.f64()
	m.Confidence = d.f64()
	m.Deferred = d.bool()
	m.Arrival = d.f64()
	m.Completion = d.f64()
}

func readPullRequest(d *bdec, m *PullRequest) {
	m.WorkerID = d.int()
	m.Role = d.str()
	m.Max = d.int()
	m.Wait = d.f64()
}

// readQueryMsgs decodes a query slice into qs's capacity.
func readQueryMsgs(d *bdec, qs []QueryMsg) []QueryMsg {
	qs = resize(qs, d.count())
	for i := range qs {
		readQueryMsg(d, &qs[i])
	}
	return qs
}

func readPullResponse(d *bdec, m *PullResponse) {
	m.Queries = readQueryMsgs(d, m.Queries)
	m.LeaseDeadline = d.f64()
	m.QueuedAt = d.f64()
}

func readCompleteRequest(d *bdec, m *CompleteRequest) {
	m.WorkerID = d.int()
	m.Role = d.str()
	m.Items = resize(m.Items, d.count())
	for i := range m.Items {
		readCompleteItem(d, &m.Items[i])
	}
	m.LeaseDeadline = d.f64()
}

func readCompleteItem(d *bdec, m *CompleteItem) {
	m.ID = d.int()
	m.Arrival = d.f64()
	m.Variant = d.str()
	m.Features = d.floatsInto(m.Features)
	m.Artifact = d.f64()
	m.Confidence = d.f64()
}

func readLBStats(d *bdec, m *LBStats) {
	m.Now = d.f64()
	m.LightQueueLen = d.int()
	m.HeavyQueueLen = d.int()
	m.LightArrivalRate = d.f64()
	m.HeavyArrivalRate = d.f64()
	m.ArrivalsSinceTick = d.int()
	m.TimeoutsSinceTick = d.int()
	m.Completed = d.int()
	m.Dropped = d.int()
	m.InFlight = d.int()
	m.Reclaims = d.int()
	m.ShedRedelivery = d.int()
	m.LateCompletions = d.int()
	m.DegradedShards = d.int()
}

func readResultsResponse(d *bdec, m *ResultsResponse) {
	m.Results = resize(m.Results, d.count())
	for i := range m.Results {
		d.tag(tagQueryResponse)
		readQueryResponse(d, &m.Results[i])
	}
}
