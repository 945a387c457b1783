// Package ring implements the consistent-hash ring that shards jobs
// across a temprivd cluster by their seed-inclusive scenario fingerprint
// (internal/scenario), so that repeated submissions of the same spec land
// on the same worker — and its result cache — even as membership churns.
//
// The ring is a classic virtual-node construction: every member
// contributes DefaultVnodes points on a 64-bit circle, a key is owned by the
// first point clockwise from its own hash, and each point's position is
// the SHA-256 of a member/vnode label — a pure function of the member
// set, so two processes that agree on membership agree on every
// placement without exchanging any state beyond the member list (the
// bulletin-board model: internal/cluster/registry distributes the list,
// every node derives the ring locally).
//
// The construction gives the bounded-churn invariant the result cache
// depends on: when one member leaves, the only keys that move are the
// ones it owned (they shift to their ring successors); when one member
// joins, the only keys that move are the ones it now owns (in
// expectation 1/N of the population). Everything else keeps its owner,
// so membership churn invalidates at most ~1/N of the cluster's cache
// locality instead of reshuffling all of it. See TestRingBoundedChurn.
//
// The vnode count is fixed, not configurable: every member of a cluster
// (gateway and workers alike) must place fingerprints identically, or a
// worker would replicate to a successor the gateway never hands off to.
//
// A Ring is immutable after New: membership changes build a new Ring
// (cheap — a sort of members·vnodes points) and swap it in atomically,
// which keeps concurrent readers lock-free.
package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultVnodes is the per-member virtual-node count. 128 points per
// member keeps the expected load imbalance within a few percent for small
// clusters while costing only a few KiB per member.
const DefaultVnodes = 128

// Ring is an immutable consistent-hash ring over a set of member IDs.
// The zero value is an empty ring (Owner always reports false).
type Ring struct {
	points  []point
	members []string // sorted, deduplicated
}

type point struct {
	hash   uint64
	member string
}

// hash64 maps a label onto the ring circle. SHA-256 (truncated to the
// first 8 bytes, big-endian) is overkill for balance but is available
// everywhere, has no seed, and — critically — is stable across
// processes, architectures and Go versions, which the cross-process
// determinism contract requires.
func hash64(label string) uint64 {
	sum := sha256.Sum256([]byte(label))
	return binary.BigEndian.Uint64(sum[:8])
}

// New builds a ring over members with DefaultVnodes virtual nodes per
// member. Member order and duplicates do not matter: the ring is a pure
// function of the member set. An empty member set yields an empty ring.
func New(members []string) *Ring {
	uniq := make([]string, 0, len(members))
	seen := make(map[string]struct{}, len(members))
	for _, m := range members {
		if m == "" {
			continue
		}
		if _, dup := seen[m]; dup {
			continue
		}
		seen[m] = struct{}{}
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{
		points:  make([]point, 0, len(uniq)*DefaultVnodes),
		members: uniq,
	}
	for _, m := range uniq {
		for i := 0; i < DefaultVnodes; i++ {
			// The label couples member and vnode index unambiguously: a
			// member named "w1#2" cannot collide with vnode 2 of "w1"
			// because the member part is length-prefixed.
			label := strconv.Itoa(len(m)) + ":" + m + "#" + strconv.Itoa(i)
			r.points = append(r.points, point{hash: hash64(label), member: m})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// A full 64-bit hash collision is vanishingly rare, but ties must
		// still break deterministically or two processes could disagree.
		return r.points[a].member < r.points[b].member
	})
	return r
}

// Members returns the ring's member IDs, sorted. The caller must not
// mutate the returned slice.
func (r *Ring) Members() []string {
	if r == nil {
		return nil
	}
	return r.members
}

// Len returns the number of distinct members.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.members)
}

// search returns the index of the first point at or clockwise from the
// key's hash (wrapping past the top of the circle).
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the member that owns key. ok is false on an empty ring.
func (r *Ring) Owner(key string) (owner string, ok bool) {
	if r == nil || len(r.points) == 0 {
		return "", false
	}
	return r.points[r.search(key)].member, true
}

// Successors returns up to n distinct members in ring order starting at
// the key's owner — the dispatch preference list: index 0 is the owner,
// index 1 is where the key moves if the owner leaves, and so on. n <= 0
// (or n > Len) returns every member.
func (r *Ring) Successors(key string, n int) []string {
	if r == nil || len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i, start := 0, r.search(key); i < len(r.points) && len(out) < n; i++ {
		m := r.points[(start+i)%len(r.points)].member
		if _, dup := seen[m]; dup {
			continue
		}
		seen[m] = struct{}{}
		out = append(out, m)
	}
	return out
}
