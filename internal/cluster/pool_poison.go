//go:build poolpoison

package cluster

import "math"

// poolpoison is the aliasing safety net for the pooled wire path:
// every buffer returned to a pool is first overwritten with sentinel
// garbage. If any live query still referenced the buffer — a handler
// that retained a decoded feature slice instead of interning it, a
// frame payload aliased past its release, a lease reclaim holding a
// recycled batch — its data turns to poison and the
// conformance/chaos suites fail loudly instead of silently serving
// corrupt results. Enable with:
//
//	go test -race -tags poolpoison ./internal/cluster/
//
// The verify script and CI run the conformance, fuzz, and chaos legs
// under this tag.

const poolPoisonEnabled = true

// poisonF64 is a signaling-style sentinel: a NaN with a recognizable
// payload, so a poisoned feature leaking into FID moments or a served
// result is unmistakable.
var poisonF64 = math.Float64frombits(0x7ff8_dead_beef_0001)

const poisonID = -0x5005 // "SOOS": poisoned query/slot ID sentinel

func poisonFloats(f []float64) {
	f = f[:cap(f)]
	for i := range f {
		f[i] = poisonF64
	}
}

func poisonQueries(qs []QueryMsg) {
	qs = qs[:cap(qs)]
	for i := range qs {
		qs[i] = QueryMsg{ID: poisonID, Arrival: poisonF64}
	}
}

// poisonItems marks pooled completion items only by ID: their Features
// were the caller's buffers, not the pool's to scribble on.
func poisonItems(items []CompleteItem) {
	items = items[:cap(items)]
	for i := range items {
		items[i] = CompleteItem{ID: poisonID}
	}
}

func poisonFrame(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xDB
	}
}
