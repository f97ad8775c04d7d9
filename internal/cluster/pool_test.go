package cluster

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestInternStringBounded pins the intern table's two contracts: hot
// strings dedupe to one backing array, and adversarial input cannot
// grow the table past internLimit.
func TestInternStringBounded(t *testing.T) {
	// Earlier tests (the fuzz seed corpus in particular) may have
	// filled the table; evict one entry so the probe is storable. The
	// table is a cache, so this is always safe.
	internMu.Lock()
	if len(interns) >= internLimit {
		for k := range interns {
			delete(interns, k)
			break
		}
	}
	internMu.Unlock()

	a := internString([]byte("intern-bound-probe"))
	b := internString([]byte("intern-bound-probe"))
	if a != b || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatalf("repeat intern did not dedupe: %p vs %p", unsafe.StringData(a), unsafe.StringData(b))
	}
	if got := internString(nil); got != "" {
		t.Fatalf("intern(nil) = %q", got)
	}

	// Flood with distinct values, as a fuzzer-driven decode would.
	for i := 0; i < 3*internLimit; i++ {
		s := fmt.Sprintf("intern-flood-%d", i)
		if got := internString([]byte(s)); got != s {
			t.Fatalf("intern(%q) = %q", s, got)
		}
	}
	internMu.RLock()
	n := len(interns)
	internMu.RUnlock()
	if n > internLimit {
		t.Fatalf("intern table grew to %d entries, limit %d", n, internLimit)
	}
}

// TestReleaseMessageResets pins what ReleaseMessage keeps (slice
// capacity, for the next allocation-free decode) and what it clears
// (lengths, scalars, and any pointer that may alias shared storage).
func TestReleaseMessageResets(t *testing.T) {
	t.Run("submit-request", func(t *testing.T) {
		m := &SubmitRequest{Queries: make([]QueryMsg, 5, 8)}
		qs := m.Queries
		ReleaseMessage(m)
		if len(m.Queries) != 0 {
			t.Fatalf("not reset: %+v", m)
		}
		if cap(m.Queries) != cap(qs) {
			t.Fatalf("capacity dropped: %d != %d", cap(m.Queries), cap(qs))
		}
	})
	t.Run("pull-response", func(t *testing.T) {
		m := &PullResponse{Queries: make([]QueryMsg, 3, 16), LeaseDeadline: 1.5, QueuedAt: 9}
		qs := m.Queries
		ReleaseMessage(m)
		if m.QueuedAt != 0 || m.LeaseDeadline != 0 || len(m.Queries) != 0 || cap(m.Queries) != cap(qs) {
			t.Fatalf("not reset with capacity kept: %+v cap=%d", m, cap(m.Queries))
		}
	})
	t.Run("complete-request", func(t *testing.T) {
		m := &CompleteRequest{
			WorkerID: 3, Role: "light", LeaseDeadline: 2,
			Items: []CompleteItem{{ID: 1, Features: make([]float64, 4, 4)}},
		}
		items := m.Items
		ReleaseMessage(m)
		if m.WorkerID != 0 || m.Role != "" || m.LeaseDeadline != 0 || len(m.Items) != 0 {
			t.Fatalf("not reset: %+v", m)
		}
		if cap(m.Items) != cap(items) {
			t.Fatalf("item capacity dropped: %d != %d", cap(m.Items), cap(items))
		}
		// The item structs (and their feature capacity) stay behind the
		// length for reuse by the next decode.
		if kept := items[:1]; kept[0].Features == nil {
			t.Fatalf("feature capacity dropped: %+v", kept[0])
		}
	})
	t.Run("results-response", func(t *testing.T) {
		// Result features alias the collector arena: release must nil
		// them out in place so a later decode cannot scribble on the
		// arena through a recycled element.
		arena := []float64{1, 2, 3}
		m := &ResultsResponse{Results: []QueryResponse{{ID: 7, Variant: "sdturbo", Features: arena}}}
		rs := m.Results
		ReleaseMessage(m)
		if len(m.Results) != 0 || cap(m.Results) != cap(rs) {
			t.Fatalf("not reset with capacity kept: %+v", m)
		}
		if got := rs[:1][0]; got.Features != nil || got.ID != 0 || got.Variant != "" {
			t.Fatalf("recycled element still aliases the arena: %+v", got)
		}
	})
	t.Run("query-response", func(t *testing.T) {
		m := &QueryResponse{ID: 4, Variant: "sdv15", Features: []float64{1}, Deferred: true}
		ReleaseMessage(m)
		if m.ID != 0 || m.Variant != "" || m.Features != nil || m.Deferred {
			t.Fatalf("not zeroed: %+v", m)
		}
	})
	t.Run("scalar-messages", func(t *testing.T) {
		pr := &PullRequest{WorkerID: 1, Role: "light", Max: 8, Wait: 2}
		ReleaseMessage(pr)
		if *pr != (PullRequest{}) {
			t.Fatalf("PullRequest not zeroed: %+v", pr)
		}
		rr := &ResultsRequest{Max: 4, Wait: 1}
		ReleaseMessage(rr)
		if *rr != (ResultsRequest{}) {
			t.Fatalf("ResultsRequest not zeroed: %+v", rr)
		}
	})
}

// TestTCPSlotReuse pins the correlation table's reuse discipline:
// sequential calls share one slot, the free list is LIFO, releasing
// bumps the generation so stale frame ids can never match, and a
// result that raced into the buffer is drained before the next
// occupant arrives.
func TestTCPSlotReuse(t *testing.T) {
	cs := &tcpConnState{}

	sl, id := cs.acquireSlotLocked()
	if idx, gen := uint32(id), uint32(id>>32); idx != 0 || gen != 0 {
		t.Fatalf("first acquire: idx=%d gen=%d", idx, gen)
	}
	if !sl.busy {
		t.Fatal("acquired slot not busy")
	}
	cs.releaseSlotLocked(id)
	if sl.busy || sl.gen != 1 {
		t.Fatalf("release did not retire: busy=%v gen=%d", sl.busy, sl.gen)
	}

	// Sequential reuse: same slot index, advancing generation, no
	// table growth.
	for i := 1; i <= 4; i++ {
		sl2, id2 := cs.acquireSlotLocked()
		if sl2 != sl {
			t.Fatalf("sequential call did not reuse slot 0")
		}
		if gen := uint32(id2 >> 32); gen != uint32(i) {
			t.Fatalf("call %d: gen=%d", i, gen)
		}
		cs.releaseSlotLocked(id2)
	}
	if len(cs.slots) != 1 {
		t.Fatalf("table grew to %d slots for sequential calls", len(cs.slots))
	}

	// Concurrent high-water: the table grows to the peak and is then
	// stable; released indexes come back LIFO.
	ids := make([]uint64, 3)
	for i := range ids {
		_, ids[i] = cs.acquireSlotLocked()
	}
	if len(cs.slots) != 3 {
		t.Fatalf("table = %d slots at concurrency 3", len(cs.slots))
	}
	for i := range ids {
		cs.releaseSlotLocked(ids[i])
	}
	if _, id := cs.acquireSlotLocked(); uint32(id) != 2 {
		t.Fatalf("free list not LIFO: reacquired idx %d", uint32(id))
	} else {
		cs.releaseSlotLocked(id)
	}

	// A response that races into the buffer just as its call gives up
	// is drained on release — the next occupant starts clean and the
	// frame buffer goes back to the pool.
	sl3, id3 := cs.acquireSlotLocked()
	bp := getFrame()
	sl3.ch <- tcpResult{bp: bp, payload: *bp}
	cs.releaseSlotLocked(id3)
	select {
	case res := <-sl3.ch:
		t.Fatalf("stale result leaked to next occupant: %+v", res)
	default:
	}
}
