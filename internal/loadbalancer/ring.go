package loadbalancer

import (
	"math/bits"
	"sort"
)

// This file implements the consistent-hash ring behind dynamic shard
// membership. ShardOf's static modulus fixes the shard count at
// process start: changing N remaps almost every query ID, so the
// sharded LB tier could only grow by restarting every process. The
// ring makes membership a runtime property — adding one shard moves
// only the ~1/N key share the new shard takes over, and removing one
// moves only the departing shard's share — while staying a pure
// function of (members, vnodes) so every process computes the same
// placement with no coordination, exactly like ShardOf.

// DefaultVNodes is the virtual-node count per member used when a ring
// is built with vnodes <= 0. 128 points per member keeps the max/min
// key-share ratio within ~1.25 for the membership sizes the tier runs
// (see ring_test.go's balance property).
const DefaultVNodes = 128

// Ring maps query IDs to shard members by consistent hashing: each
// member owns the key ranges preceding its virtual nodes on a 64-bit
// hash circle. A Ring is immutable; membership changes build a new
// Ring (a new "epoch" in the cluster tier's terms), and placement is
// deterministic across processes — the vnode positions and the key
// hash are both pure FNV-1a derivations.
//
// The zero-vnode constructor NewModulusRing reproduces ShardOf's
// static-modulus placement byte-identically, so existing static-N
// deployments keep their exact assignment; NewRing is the elastic
// placement used once membership can change.
type Ring struct {
	members []int // sorted ascending; Owner returns values from here
	modulus bool  // legacy ShardOf placement over len(members)

	// Vnode circle, sorted by hash. owners[i] indexes members.
	hashes []uint64
	owners []int32

	// Lookup acceleration: bucket b of table covers the hash range
	// [b<<shift, (b+1)<<shift) and holds the index of the first vnode
	// with hash >= b<<shift, so Owner is one table read plus a short
	// forward scan instead of a binary search over every vnode.
	shift uint
	table []int32
}

// hash64 is the FNV-1a mix shared by ShardOf and the ring's key
// placement: both hash the 8 little-endian bytes of the ID, so a
// modulus ring agrees with ShardOf bit for bit.
func hash64(v uint64) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < 8; i++ {
		h ^= v >> (8 * i) & 0xff
		h *= 1099511628211 // FNV-1a prime
	}
	return h
}

// fmix64 is the 64-bit avalanche finisher (SplitMix64/Murmur3 style).
// FNV-1a alone clusters vnode positions for small sequential inputs;
// the finisher spreads them uniformly over the circle, which is what
// keeps per-member key shares balanced.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// vnodeHash positions replica r of member m on the circle. Placement
// is stratified: replica j lands inside segment j of the circle (the
// circle split into vnodes equal segments), at an offset derived from
// the member/replica FNV mix. Every member then has exactly one
// virtual node per segment, so a member's key share is the average of
// vnodes independent per-segment shares instead of the sum of fully
// random arcs — that averaging is what holds the max/min share ratio
// within 1.25 at 128 vnodes, where unstratified placement lands
// around 1.3. Segment bounds are the exact 128-bit quotients
// floor(j*2^64/vnodes), so the stratification holds for every vnode
// count, not just powers of two (a rounded-up fixed width would wrap
// the last replicas back into segment 0).
func vnodeHash(member, replica, vnodes int) uint64 {
	off := fmix64(hash64(uint64(member)) ^ fmix64(uint64(replica)*0x9e3779b97f4a7c15))
	if vnodes == 1 {
		return off
	}
	start, _ := bits.Div64(uint64(replica), 0, uint64(vnodes))
	var end uint64 // segment end; 0 means 2^64 for the last segment
	if replica+1 < vnodes {
		end, _ = bits.Div64(uint64(replica+1), 0, uint64(vnodes))
	}
	return start + off%(end-start)
}

// NewRing builds a consistent-hash ring over the given members with
// vnodes virtual nodes each (vnodes <= 0 uses DefaultVNodes). Members
// are arbitrary non-negative IDs — they need not be contiguous, which
// is what lets a removed shard's ID stay retired forever. Duplicate
// members are collapsed. An empty member list yields a ring that owns
// nothing; callers guard against it.
func NewRing(members []int, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	ms := dedupSorted(members)
	r := &Ring{members: ms}
	if len(ms) == 0 {
		return r
	}
	type point struct {
		hash  uint64
		owner int32
	}
	points := make([]point, 0, len(ms)*vnodes)
	for oi, m := range ms {
		for j := 0; j < vnodes; j++ {
			points = append(points, point{vnodeHash(m, j, vnodes), int32(oi)})
		}
	}
	// Sort by hash; ties (astronomically rare) break by owner index so
	// the ring is identical regardless of member insertion order.
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].owner < points[j].owner
	})
	r.hashes = make([]uint64, len(points))
	r.owners = make([]int32, len(points))
	for i, p := range points {
		r.hashes[i] = p.hash
		r.owners[i] = p.owner
	}
	// Bucket table ~4x the vnode count, rounded to a power of two:
	// <=0.25 vnodes per bucket on average keeps the post-table scan a
	// step or two, which is what holds Owner within ~2x of ShardOf.
	size := 1
	for size < 4*len(points) {
		size <<= 1
	}
	shift := uint(64)
	for s := size; s > 1; s >>= 1 {
		shift--
	}
	r.shift = shift
	r.table = make([]int32, size)
	idx := 0
	for b := 0; b < size; b++ {
		start := uint64(b) << shift
		for idx < len(r.hashes) && r.hashes[idx] < start {
			idx++
		}
		r.table[b] = int32(idx)
	}
	return r
}

// NewModulusRing builds a ring that reproduces ShardOf(id, n) exactly,
// with members 0..n-1 — the compatibility placement for static-N
// tiers. Resharding away from it moves keys like any membership
// change would; resharding between true NewRing epochs moves only the
// minimal share.
func NewModulusRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	return &Ring{members: members, modulus: true}
}

// Owner returns the member that owns a query ID: the member whose
// virtual node is first at or clockwise of the ID's hash. A modulus
// ring delegates to ShardOf. Owner on an empty ring returns -1.
func (r *Ring) Owner(id int) int {
	if len(r.members) == 0 {
		return -1
	}
	if r.modulus {
		return r.members[ShardOf(id, len(r.members))]
	}
	h := hash64(uint64(id))
	i := int(r.table[h>>r.shift])
	for i < len(r.hashes) && r.hashes[i] < h {
		i++
	}
	if i == len(r.hashes) {
		i = 0 // wrap: the first vnode owns the top of the circle
	}
	return r.members[r.owners[i]]
}

// NextOwner returns the first member clockwise of id's hash whose ID
// differs from the primary owner — the spill target a frontend uses
// when the primary is unreachable (degraded). Walking the vnode circle
// (rather than the sorted member list) keeps the spill assignment
// consistent: every frontend computes the same fallback for a given
// ID, and keys spill to different successors instead of piling onto
// one neighbor. A modulus ring uses the next member index; a ring with
// fewer than two members has no distinct successor and returns the
// primary (or -1 when empty).
func (r *Ring) NextOwner(id int) int {
	n := len(r.members)
	if n == 0 {
		return -1
	}
	if n == 1 {
		return r.members[0]
	}
	if r.modulus {
		return r.members[(ShardOf(id, n)+1)%n]
	}
	h := hash64(uint64(id))
	i := int(r.table[h>>r.shift])
	for i < len(r.hashes) && r.hashes[i] < h {
		i++
	}
	if i == len(r.hashes) {
		i = 0
	}
	primary := r.owners[i]
	for step := 1; step <= len(r.owners); step++ {
		j := (i + step) % len(r.owners)
		if r.owners[j] != primary {
			return r.members[r.owners[j]]
		}
	}
	return r.members[primary]
}

// dedupSorted returns a sorted copy of ms with duplicates removed.
func dedupSorted(ms []int) []int {
	out := make([]int, len(ms))
	copy(out, ms)
	sort.Ints(out)
	w := 0
	for i, m := range out {
		if i == 0 || m != out[w-1] {
			out[w] = m
			w++
		}
	}
	return out[:w]
}
