package fleet

import (
	"sort"
	"strconv"
)

// ringSeed deterministically perturbs every vnode and key hash. A fixed
// compile-time constant — never wall-clock or process entropy — so two
// routers built over the same replica list always agree on key placement,
// and a restarted router sends every protein back to the replica that
// served it before.
const ringSeed uint64 = 0x9e3779b97f4a7c15

// ringProbes is the probe count for multi-probe owner selection. A plain
// vnode ring's load skew is the variance of random arc lengths —
// relative deviation ~1/sqrt(vnodes), so individual members routinely
// land 20-30% over the even share at 64 vnodes. Multi-probe consistent
// hashing (Mirrokni/Thorup/Zadimoghaddam style) hashes each key at
// ringProbes independent points and picks the vnode with the smallest
// clockwise distance, which concentrates load around the mean (peak about
// 1 + ln(k)/k of average) without adding vnodes — and, unlike bounded-load
// variants, stays a pure function of (key, member set), so it keeps the
// exact minimal-movement property: a probe's distance to a surviving
// member's vnode never changes when another member leaves.
const ringProbes = 21

// hash64 is FNV-64a over s, mixed with the ring seed and finished with
// the splitmix64 avalanche. Plain FNV clusters badly on the short
// "host:port#NN" vnode labels that differ only in their numeric tail; the
// finalizer spreads those across the whole 64-bit ring.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037) ^ ringSeed
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// mix64 is the splitmix64 avalanche finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Ring is a consistent-hash ring: each member owns vnodes points on a
// 64-bit circle, and a key belongs to the vnode with the smallest
// clockwise distance from any of the key's ringProbes probe points (see
// winner). Placement is a pure function of the member
// names, so it is identical across runs and across router instances, and
// removing one member moves only the keys that member owned — every other
// key keeps its owner, so each protein's traffic stays on one replica
// through membership churn. Immutable after construction.
type Ring struct {
	members []string // sorted member names; node.member indexes this
	nodes   []ringNode
}

type ringNode struct {
	hash   uint64
	member int32
}

// NewRing builds a ring with vnodes virtual nodes per member. Member
// names are deduplicated and sorted, so the input order never matters.
func NewRing(members []string, vnodes int) *Ring {
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, nodes: make([]ringNode, 0, len(uniq)*vnodes)}
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.nodes = append(r.nodes, ringNode{
				hash:   hash64(m + "#" + strconv.Itoa(v)),
				member: int32(mi),
			})
		}
	}
	sort.Slice(r.nodes, func(i, j int) bool {
		if r.nodes[i].hash != r.nodes[j].hash {
			return r.nodes[i].hash < r.nodes[j].hash
		}
		// A 64-bit collision between vnode labels is vanishingly rare but
		// must still order deterministically.
		return r.nodes[i].member < r.nodes[j].member
	})
	return r
}

// Members returns the sorted member names. Callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the index (into Members) of the member owning key.
func (r *Ring) Owner(key string) int {
	if len(r.nodes) == 0 {
		return -1
	}
	return int(r.nodes[r.winner(key)].member)
}

// winner picks the owning vnode for key by multi-probe selection: the
// key hashes at ringProbes points derived from a splitmix64 stream, and
// the vnode with the smallest clockwise distance from any probe wins.
// Ties (astronomically rare) break toward the earliest probe.
func (r *Ring) winner(key string) int {
	base := hash64(key)
	best, bestDist := 0, ^uint64(0)
	for p := 0; p < ringProbes; p++ {
		h := mix64(base + uint64(p)*ringSeed)
		i := r.search(h)
		// Unsigned subtraction wraps, which is exactly the clockwise
		// distance when the search wrapped past the top of the ring.
		if d := r.nodes[i].hash - h; d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// search finds the first vnode at or clockwise of h, wrapping at the top.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].hash >= h })
	if i == len(r.nodes) {
		i = 0
	}
	return i
}

// Preference appends to dst the distinct member indices in ring order
// starting at key's owner: dst[0] is the primary, dst[1] the first
// fallback, and so on through every member. This is the retry and hedge
// order — deterministic for a given key, so retries of the same protein
// always walk the same replica sequence.
func (r *Ring) Preference(key string, dst []int) []int {
	if len(r.nodes) == 0 {
		return dst
	}
	start := r.winner(key)
	var seen uint64 // bitset over member indices; fleets are small
	found := 0
	for i := 0; i < len(r.nodes) && found < len(r.members); i++ {
		n := r.nodes[(start+i)%len(r.nodes)]
		if seen&(1<<uint(n.member)) != 0 {
			continue
		}
		seen |= 1 << uint(n.member)
		dst = append(dst, int(n.member))
		found++
	}
	return dst
}
