package loadbalancer

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// ringKeys is the ID population the ring properties are verified
// over: 1e5 sequential IDs, the shape real query streams have.
const ringKeys = 100000

// TestRingDeterminism pins the cross-process contract: two rings built
// from the same members — one from a permuted, duplicated list — assign
// every key identically.
func TestRingDeterminism(t *testing.T) {
	a := NewRing([]int{0, 1, 2, 5})
	b := NewRing([]int{5, 2, 1, 0, 2}) // permuted + duplicate
	for id := 0; id < ringKeys; id++ {
		if ao, bo := a.Owner(id), b.Owner(id); ao != bo {
			t.Fatalf("ring not order-independent: id %d -> %d vs %d", id, ao, bo)
		}
		if ao, bo := a.NextOwner(id), b.NextOwner(id); ao != bo {
			t.Fatalf("ring spill not order-independent: id %d -> %d vs %d", id, ao, bo)
		}
	}
}

// TestRingMatchesShardOf pins the placement: Owner is ShardOf over the
// sorted member list and NextOwner the member after it, so over members
// 0..n-1 a ring routes every ID exactly as ShardOf(id, n) does. The
// non-contiguous lists are the shapes a RemoveShard leaves behind.
func TestRingMatchesShardOf(t *testing.T) {
	memberSets := [][]int{{1, 2}, {0, 2, 5}}
	for n := 1; n <= 8; n++ {
		ms := make([]int, n)
		for i := range ms {
			ms[i] = i
		}
		memberSets = append(memberSets, ms)
	}
	for _, ms := range memberSets {
		r := NewRing(ms)
		n := len(ms)
		for id := 0; id < ringKeys; id++ {
			s := ShardOf(id, n)
			if got := r.Owner(id); got != ms[s] {
				t.Fatalf("members %v: Owner(%d) = %d, want %d", ms, id, got, ms[s])
			}
			if got, want := r.NextOwner(id), ms[(s+1)%n]; got != want {
				t.Fatalf("members %v: NextOwner(%d) = %d, want %d", ms, id, got, want)
			}
		}
	}
}

// TestRingEdgeCases covers the degenerate shapes callers can build.
func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(nil)
	if got := empty.Owner(7); got != -1 {
		t.Errorf("empty ring Owner = %d, want -1", got)
	}
	if got := empty.NextOwner(7); got != -1 {
		t.Errorf("empty ring NextOwner = %d, want -1", got)
	}
	one := NewRing([]int{9})
	for id := 0; id < 100; id++ {
		if one.Owner(id) != 9 || one.NextOwner(id) != 9 {
			t.Fatalf("single-member ring routed id %d to %d / %d", id, one.Owner(id), one.NextOwner(id))
		}
	}
	if got := fmt.Sprint(NewRing([]int{4, 4, 4}).members); got != "[4]" {
		t.Errorf("duplicate members collapsed to %s, want [4]", got)
	}
	// Negative IDs hash like any other bit pattern and must still land
	// on a member.
	r := NewRing([]int{0, 1, 2})
	for id := -1000; id < 0; id++ {
		if o := r.Owner(id); o < 0 || o > 2 {
			t.Fatalf("negative id %d routed to non-member %d", id, o)
		}
	}
}

// FuzzRingLookup feeds arbitrary membership shapes and IDs to the ring.
// Every lookup must return a member (never a panic, never a
// non-member), rebuilt rings must agree (determinism), and the spill
// target must differ from the owner whenever there are two members.
func FuzzRingLookup(f *testing.F) {
	seed := func(members []int, id int) {
		data := []byte{byte(len(members))}
		for _, m := range members {
			data = binary.AppendUvarint(data, uint64(m))
		}
		data = binary.AppendUvarint(data, uint64(id))
		f.Add(data)
	}
	seed([]int{0, 1}, 42)
	seed([]int{0, 1, 2, 3, 4}, 99991)
	seed([]int{7, 300, 12}, 0)
	seed(nil, 5)
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
		idv, _ := binary.Uvarint(rest)
		id := int(idv)

		r := NewRing(members)
		owner, next := r.Owner(id), r.NextOwner(id)
		if len(members) == 0 {
			if owner != -1 || next != -1 {
				t.Fatalf("empty ring returned owner %d, next %d", owner, next)
			}
			return
		}
		if !slices.Contains(members, owner) || !slices.Contains(members, next) {
			t.Fatalf("Owner(%d) = %d / NextOwner = %d not members of %v", id, owner, next, members)
		}
		if len(r.members) > 1 && next == owner {
			t.Fatalf("NextOwner(%d) = owner %d over %v", id, owner, r.members)
		}
		if again := NewRing(members).Owner(id); again != owner {
			t.Fatalf("rebuilt ring disagreed: %d vs %d", again, owner)
		}
	})
}
