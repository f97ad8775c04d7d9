package loadbalancer

import "slices"

// Ring is the sharded LB tier's placement over a runtime membership:
// ShardOf over the sorted member list. A Ring is immutable; a
// membership change builds a new Ring (a new "epoch" in the cluster
// tier's terms). Placement is a pure function of (members, id), so
// every process computes the same owner with no coordination, and over
// members 0..n-1 a Ring assigns exactly what ShardOf(id, n) does.
//
// A membership change remaps most IDs, and nothing depends on it
// remapping few: placement only routes a new submit and re-homes a
// departing member's drained queue. A query already queued on a
// surviving member stays there, and its completion follows the record
// of where it was sent, not the current placement.
type Ring struct {
	members []int // sorted ascending, no duplicates
}

// NewRing builds the placement over the given members. Members are
// arbitrary non-negative IDs — they need not be contiguous, which is
// what lets a removed shard's ID stay retired forever — and their
// order does not matter; duplicates are collapsed. An empty member
// list yields a ring that owns nothing; callers guard against it.
func NewRing(members []int) *Ring {
	ms := slices.Clone(members)
	slices.Sort(ms)
	return &Ring{members: slices.Compact(ms)}
}

// Owner returns the member that owns a query ID, or -1 on an empty
// ring.
func (r *Ring) Owner(id int) int {
	if len(r.members) == 0 {
		return -1
	}
	return r.members[ShardOf(id, len(r.members))]
}

// NextOwner returns the member after id's owner in the sorted member
// list — the spill target a frontend uses when the owner is degraded.
// Every frontend computes the same fallback for a given ID. A ring with
// fewer than two members has no distinct successor and returns the
// owner (or -1 when empty).
func (r *Ring) NextOwner(id int) int {
	n := len(r.members)
	if n == 0 {
		return -1
	}
	return r.members[(ShardOf(id, n)+1)%n]
}
