package loadbalancer

import (
	"encoding/binary"
	"math/bits"
	"testing"
)

// ringKeys is the ID population the ring properties are verified
// over: 1e5 sequential IDs, the shape real query streams have.
const ringKeys = 100000

// TestRingDeterminism pins the cross-process contract: two rings
// built from the same (members, vnodes) — including a permuted,
// duplicated member list — assign every key identically, and a
// modulus ring reproduces ShardOf bit for bit.
func TestRingDeterminism(t *testing.T) {
	a := NewRing([]int{0, 1, 2, 5}, 128)
	b := NewRing([]int{5, 2, 1, 0, 2}, 128) // permuted + duplicate
	for id := 0; id < ringKeys; id++ {
		if ao, bo := a.Owner(id), b.Owner(id); ao != bo {
			t.Fatalf("ring not order-independent: id %d -> %d vs %d", id, ao, bo)
		}
	}
	for _, n := range []int{1, 2, 3, 7} {
		m := NewModulusRing(n)
		if !m.Modulus() {
			t.Fatalf("NewModulusRing(%d) not flagged as modulus", n)
		}
		for id := 0; id < 2000; id++ {
			if got, want := m.Owner(id), ShardOf(id, n); got != want {
				t.Fatalf("modulus ring diverged from ShardOf at n=%d id=%d: %d vs %d", n, id, got, want)
			}
		}
	}
}

// TestRingBalance pins the load-spread property the tier depends on:
// at 128 vnodes the largest member's key share stays within 1.25x the
// smallest's for every membership size the tier runs, over 1e5 IDs.
func TestRingBalance(t *testing.T) {
	memberSets := [][]int{
		{0, 1},
		{0, 1, 2},
		{0, 1, 2, 3},
		{0, 1, 2, 3, 4},
		{3, 11, 42}, // non-contiguous survivors of earlier reshards
	}
	for _, ms := range memberSets {
		r := NewRing(ms, 128)
		counts := map[int]int{}
		for id := 0; id < ringKeys; id++ {
			counts[r.Owner(id)]++
		}
		if len(counts) != len(ms) {
			t.Fatalf("members %v: only %d of %d members own keys", ms, len(counts), len(ms))
		}
		min, max := ringKeys, 0
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if ratio := float64(max) / float64(min); ratio > 1.25 {
			t.Errorf("members %v: max/min key share %.3f > 1.25 (counts %v)", ms, ratio, counts)
		}
	}
}

// TestRingMinimalDisruption pins the property the modulus cannot
// offer: adding one member to an N-member ring moves at most
// (1/N)+eps of the keys, and every moved key moves TO the new member
// — no key ever moves between two surviving members.
func TestRingMinimalDisruption(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7} {
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		before := NewRing(members, 128)
		after := NewRing(append(append([]int{}, members...), n), 128)
		moved := 0
		for id := 0; id < ringKeys; id++ {
			ob, oa := before.Owner(id), after.Owner(id)
			if ob == oa {
				continue
			}
			if oa != n {
				t.Fatalf("n=%d: id %d moved %d -> %d, not to the new member %d", n, id, ob, oa, n)
			}
			moved++
		}
		// The new member should take ~1/(n+1); the satellite bound is
		// (1/n)+eps, comfortably above the expectation.
		limit := 1.0/float64(n) + 0.05
		if frac := float64(moved) / ringKeys; frac > limit {
			t.Errorf("n=%d: adding one member moved %.4f of keys, limit %.4f", n, frac, limit)
		}
		if moved == 0 {
			t.Errorf("n=%d: adding a member moved no keys", n)
		}
	}
}

// TestRingRemovalDisruption is the inverse property: removing one
// member moves exactly that member's keys, each to some survivor.
func TestRingRemovalDisruption(t *testing.T) {
	before := NewRing([]int{0, 1, 2, 3}, 128)
	after := NewRing([]int{0, 1, 3}, 128)
	for id := 0; id < ringKeys; id++ {
		ob, oa := before.Owner(id), after.Owner(id)
		if ob != 2 && ob != oa {
			t.Fatalf("id %d moved %d -> %d though its owner survived", id, ob, oa)
		}
		if ob == 2 && oa == 2 {
			t.Fatalf("id %d still owned by the removed member", id)
		}
	}
}

// TestRingEdgeCases covers the degenerate shapes callers can build.
func TestRingEdgeCases(t *testing.T) {
	if got := NewRing(nil, 128).Owner(7); got != -1 {
		t.Errorf("empty ring Owner = %d, want -1", got)
	}
	one := NewRing([]int{9}, 4)
	for id := 0; id < 100; id++ {
		if one.Owner(id) != 9 {
			t.Fatalf("single-member ring routed id %d to %d", id, one.Owner(id))
		}
	}
	if !one.Has(9) || one.Has(3) {
		t.Error("Has misreports membership")
	}
	if n := NewRing([]int{4, 4, 4}, 8).N(); n != 1 {
		t.Errorf("duplicate members collapsed to %d, want 1", n)
	}
	// Negative IDs hash like any other bit pattern and must still land
	// on a member.
	r := NewRing([]int{0, 1, 2}, 64)
	for id := -1000; id < 0; id++ {
		if o := r.Owner(id); !r.Has(o) {
			t.Fatalf("negative id %d routed to non-member %d", id, o)
		}
	}
}

// TestVnodeStratification pins the placement invariant the balance
// bound rests on: replica j of any member lands inside segment j of
// the circle for every vnode count — including non-powers of two,
// where a rounded-up fixed segment width would wrap the last
// replicas back into segment 0.
func TestVnodeStratification(t *testing.T) {
	for _, vnodes := range []int{2, 3, 100, 128, 257} {
		for _, member := range []int{0, 7, 4095} {
			for j := 0; j < vnodes; j++ {
				start, _ := bits.Div64(uint64(j), 0, uint64(vnodes))
				var end uint64
				if j+1 < vnodes {
					end, _ = bits.Div64(uint64(j+1), 0, uint64(vnodes))
				}
				h := vnodeHash(member, j, vnodes)
				if h < start || (end != 0 && h >= end) {
					t.Fatalf("vnodes=%d member=%d replica=%d: position %x outside segment [%x, %x)",
						vnodes, member, j, h, start, end)
				}
			}
		}
	}
}

// TestRingDefaultVNodes pins the vnodes<=0 fallback.
func TestRingDefaultVNodes(t *testing.T) {
	a := NewRing([]int{0, 1, 2}, 0)
	b := NewRing([]int{0, 1, 2}, DefaultVNodes)
	for id := 0; id < 10000; id++ {
		if a.Owner(id) != b.Owner(id) {
			t.Fatalf("vnodes<=0 did not default to DefaultVNodes at id %d", id)
		}
	}
}

// FuzzRingLookup feeds arbitrary membership shapes, vnode counts, and
// IDs to the ring. Every lookup must return a member (never a panic,
// never a non-member), rebuilt rings must agree (determinism), and
// the modulus mode must match ShardOf.
func FuzzRingLookup(f *testing.F) {
	seed := func(members []int, vnodes int, id int) {
		data := []byte{byte(len(members))}
		for _, m := range members {
			data = binary.AppendUvarint(data, uint64(m))
		}
		data = binary.AppendUvarint(data, uint64(vnodes))
		data = binary.AppendUvarint(data, uint64(id))
		f.Add(data)
	}
	seed([]int{0, 1}, 128, 42)
	seed([]int{0, 1, 2, 3, 4}, 16, 99991)
	seed([]int{7, 300, 12}, 1, 0)
	seed(nil, 128, 5)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 17) // 0..16 members
		rest := data[1:]
		members := make([]int, 0, n)
		for i := 0; i < n; i++ {
			v, used := binary.Uvarint(rest)
			if used <= 0 {
				break
			}
			rest = rest[used:]
			members = append(members, int(v%4096))
		}
		vn, used := binary.Uvarint(rest)
		if used > 0 {
			rest = rest[used:]
		}
		vnodes := int(vn % 256)
		idv, _ := binary.Uvarint(rest)
		id := int(idv)

		r := NewRing(members, vnodes)
		owner := r.Owner(id)
		if len(r.Members()) == 0 {
			if owner != -1 {
				t.Fatalf("empty ring returned owner %d", owner)
			}
			return
		}
		if !r.Has(owner) {
			t.Fatalf("Owner(%d) = %d is not a member of %v", id, owner, r.Members())
		}
		if again := NewRing(members, vnodes).Owner(id); again != owner {
			t.Fatalf("rebuilt ring disagreed: %d vs %d", again, owner)
		}
		if m := NewModulusRing(len(r.Members())); m.Owner(id) != ShardOf(id, len(r.Members())) {
			t.Fatalf("modulus ring diverged from ShardOf")
		}
	})
}

// BenchmarkShardOf is the static-modulus baseline the ring lookup is
// held against (acceptance: ring within 2x).
func BenchmarkShardOf(b *testing.B) {
	s := 0
	for i := 0; i < b.N; i++ {
		s += ShardOf(i, 3)
	}
	benchSink = s
}

// BenchmarkRingLookup measures the consistent-hash lookup on a
// 3-member, 128-vnode ring — the bucket table keeps it within the 2x
// bar over ShardOf.
func BenchmarkRingLookup(b *testing.B) {
	r := NewRing([]int{0, 1, 2}, 128)
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += r.Owner(i)
	}
	benchSink = s
}

var benchSink int
