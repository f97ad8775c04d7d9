package cluster

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// codec is what the tests drive on both encodings of the wire
// messages.
type codec interface {
	Marshal(v interface{}) ([]byte, error)
	Unmarshal(data []byte, v interface{}) error
}

// CodecJSON is the reference encoding: encoding/json over the wire
// messages' json tags, which follow the structs by reflection. The
// parity tests and the size test hold CodecBinary to it; nothing sends
// it over a connection.
var CodecJSON codec = jsonCodec{}

type jsonCodec struct{}

func (jsonCodec) Marshal(v interface{}) ([]byte, error)   { return json.Marshal(v) }
func (jsonCodec) Unmarshal(d []byte, v interface{}) error { return json.Unmarshal(d, v) }

// codecs names both encodings for the tests and benchmarks that run
// each.
var codecs = []struct {
	name string
	c    codec
}{{"json", CodecJSON}, {"binary", CodecBinary}}

// codecRT round-trips a message through a codec into fresh storage.
func codecRT(t *testing.T, c codec, in, out interface{}) {
	t.Helper()
	data, err := c.Marshal(in)
	if err != nil {
		t.Fatalf("%T marshal %T: %v", c, in, err)
	}
	if err := c.Unmarshal(data, out); err != nil {
		t.Fatalf("%T unmarshal %T: %v", c, out, err)
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

		ws := WorkerStats{Role: randString(rng)}
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

// wireRows holds one message per codec tag, in tag order. A struct
// added to wire.go is reached from a row or fails
// TestCodecRoundTripsEveryField.
var wireRows = []interface{}{
	&QueryMsg{}, &QueryResponse{}, &PullRequest{}, &PullResponse{},
	&CompleteRequest{}, &ConfigureWorkerRequest{}, &ConfigureLBRequest{},
	&WorkerStats{}, &LBStats{}, &SubmitRequest{}, &ResultsRequest{},
	&ResultsResponse{},
}

// filler sets every field of a wire message by reflection: each
// number and string its own value from one counter, so no two fields
// (and no two slice elements) carry the same one, and each bool the
// counter's parity. Two fills whose bases differ in parity therefore
// set every bool true in one of them.
type filler struct {
	t     *testing.T
	n     int             // the counter
	elems int             // the length of every slice
	seen  map[string]bool // the names of the struct types reached
}

func (f *filler) fill(v reflect.Value) {
	f.t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		f.seen[v.Type().Name()] = true
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			if !sf.IsExported() {
				f.t.Fatalf("%s.%s: unexported field; the codecs do not carry it", v.Type(), sf.Name)
			}
			if tag := sf.Tag.Get("json"); tag == "" || tag == "-" || strings.HasPrefix(tag, "-,") {
				f.t.Fatalf("%s.%s: json tag %q; the JSON reference does not carry it", v.Type(), sf.Name, tag)
			}
			f.fill(v.Field(i))
		}
		return
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), f.elems, f.elems))
		for i := 0; i < f.elems; i++ {
			f.fill(v.Index(i))
		}
		return
	}
	f.n++
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(int64(f.n))
	case reflect.Float64:
		v.SetFloat(float64(f.n) + 0.25)
	case reflect.String:
		v.SetString("s" + strconv.Itoa(f.n))
	case reflect.Bool:
		v.SetBool(f.n%2 == 1)
	default:
		f.t.Fatalf("fill: kind %s of %s not handled", v.Kind(), v.Type())
	}
}

// wireStructs lists wire.go's message structs: those with a json tag.
func wireStructs(t *testing.T) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		if st, ok := spec.Type.(*ast.StructType); ok {
			for _, field := range st.Fields.List {
				if field.Tag != nil && strings.Contains(field.Tag.Value, `json:"`) {
					names = append(names, spec.Name.Name)
					break
				}
			}
		}
		return false
	})
	return names
}

// TestCodecRoundTripsEveryField fills every field of every wire
// message with a distinct value and holds the binary codec to an exact
// round trip and to the JSON reference. A field the codec drops, or two
// decoded in each other's place, changes the value. It also pins what
// the TCP server's pooled decode relies on: the decoder overwrites
// every field, so decoding into a message that already holds other
// values, or decoding the zero message into one, equals a fresh decode.
func TestCodecRoundTripsEveryField(t *testing.T) {
	seen := map[string]bool{}
	fresh := func(row interface{}) interface{} { return reflect.New(reflect.TypeOf(row).Elem()).Interface() }
	filled := func(t *testing.T, row interface{}, base, elems int) interface{} {
		v := fresh(row)
		(&filler{t: t, n: base, elems: elems, seen: seen}).fill(reflect.ValueOf(v).Elem())
		return v
	}
	for _, row := range wireRows {
		t.Run(reflect.TypeOf(row).Elem().Name(), func(t *testing.T) {
			// Each message is decoded fresh and into one filled with
			// other values and other slice lengths; the last is the
			// zero message.
			for _, c := range []struct{ in, dirty interface{} }{
				{filled(t, row, 0, 2), filled(t, row, 1001, 3)},
				{filled(t, row, 1001, 3), filled(t, row, 0, 2)},
				{fresh(row), filled(t, row, 0, 2)},
			} {
				out := fresh(row)
				codecRT(t, CodecBinary, c.in, out)
				if !reflect.DeepEqual(out, c.in) {
					t.Errorf("binary round trip changed the message:\n  in:  %+v\n  out: %+v", c.in, out)
				}
				checkParity(t, c.in, func() interface{} { return fresh(row) })
				codecRT(t, CodecBinary, c.in, c.dirty)
				if !reflect.DeepEqual(c.dirty, out) {
					t.Errorf("decode into a filled message differs from a fresh decode:\n  fresh:  %+v\n  filled: %+v", out, c.dirty)
				}
			}
		})
	}
	for _, name := range wireStructs(t) {
		if !seen[name] {
			t.Errorf("wire.go's %s is reached from no row of wireRows", name)
		}
	}
}
