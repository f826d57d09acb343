package graph

import (
	"math"
	"math/bits"
)

// Automorphisms enumerates the automorphisms of d (as permutations:
// perm[i] = image of vertex i), up to the given cap (0 = no cap), in the
// isomorphism search's order from d onto itself. The identity is always
// included.
func Automorphisms(d *Dense, cap int) [][]int {
	var out [][]int
	mapping := make([]int, d.n)
	isoMappings(d, d, mapping, func() bool {
		out = append(out, append([]int(nil), mapping...))
		return cap > 0 && len(out) >= cap
	})
	return out
}

// Orbits returns the automorphism orbits of d: the partition of vertices
// into the paper's "symmetric vertex sets". Vertices in the same orbit can
// be interchanged by some automorphism. Orbits are returned sorted by their
// smallest member; singleton orbits are included.
func Orbits(d *Dense) [][]int {
	// A generous cap: the orbit partition usually converges from few
	// automorphisms; 4096 covers highly symmetric meso-scale motifs.
	return OrbitsOf(d.n, Automorphisms(d, 4096))
}

// OrbitsOf returns the orbits of vertices 0..n-1 under the permutations
// auts (perm[i] = image of vertex i): the classes of the smallest
// equivalence relating each i to every perm[i]. Orbits are sorted by their
// smallest member, members ascending; singletons are included. Undirected
// and directed patterns share it.
func OrbitsOf(n int, auts [][]int) [][]int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, perm := range auts {
		for i, img := range perm {
			// The smaller root wins, so every root is its orbit's
			// smallest member.
			ri, rj := find(i), find(img)
			if ri > rj {
				ri, rj = rj, ri
			}
			parent[rj] = ri
		}
	}
	orbits := make([][]int, 0, n)
	at := make([]int, n) // root -> index of its orbit
	for v := 0; v < n; v++ {
		if r := find(v); r != v {
			orbits[at[r]] = append(orbits[at[r]], v)
			continue
		}
		at[v] = len(orbits)
		orbits = append(orbits, []int{v})
	}
	return orbits
}

// AutomorphismCount returns |Aut(d)|, the order of d's automorphism group,
// saturated at math.MaxInt64. It never lists the group. By the
// orbit–stabilizer theorem the order is the product, over i, of the size of
// vertex i's orbit under the automorphisms that fix vertices 0..i-1; each
// member w of that orbit is certified by one existence search for an
// automorphism that fixes 0..i-1 and sends i to w. A k-vertex star, whose
// group has (k-1)! elements, costs O(k²) short searches.
func AutomorphismCount(d *Dense) int64 {
	n := d.n
	s := autSearch{d: d}
	var colArr [MaxDense]uint64
	wlColors(d, &colArr)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if colArr[u] == colArr[v] {
				s.cand[u] |= 1 << uint(v)
			}
		}
	}
	order := int64(1)
	for i := 0; i < n; i++ {
		s.plan(i)
		orbit := int64(1) // w = i: the identity
		for m := s.cand[i] >> uint(i+1) << uint(i+1); m != 0; m &= m - 1 {
			if s.extends(i, bits.TrailingZeros32(m)) {
				orbit++
			}
		}
		order = satMul(order, orbit)
	}
	return order
}

// autSearch is AutomorphismCount's existence search: is there an
// automorphism that fixes vertices 0..i-1 and sends i to w?
type autSearch struct {
	d     *Dense
	cand  [MaxDense]uint32 // vertices sharing u's WL color: u's possible images
	rest  [MaxDense]int    // vertices i+1..n-1 in placement order
	nrest int
	img   [MaxDense]int
	taken uint32 // images in use
}

// plan orders the vertices above i for placement: each next one has the
// most edges into the vertices placed before it (0..i first), ties to the
// lower index, so adjacency constraints prune the search early.
func (s *autSearch) plan(i int) {
	placed := uint32(1)<<uint(i+1) - 1
	s.nrest = 0
	for r := i + 1; r < s.d.n; r++ {
		best, bestC := -1, -1
		for v := i + 1; v < s.d.n; v++ {
			if placed&(1<<uint(v)) == 0 {
				if c := bits.OnesCount32(s.d.rows[v] & placed); c > bestC {
					best, bestC = v, c
				}
			}
		}
		s.rest[s.nrest] = best
		s.nrest++
		placed |= 1 << uint(best)
	}
}

// extends reports whether some automorphism fixes 0..i-1 and sends i to w.
func (s *autSearch) extends(i, w int) bool {
	fixed := uint32(1)<<uint(i) - 1
	if (s.d.rows[i]^s.d.rows[w])&fixed != 0 {
		return false
	}
	for v := 0; v < i; v++ {
		s.img[v] = v
	}
	s.img[i] = w
	s.taken = fixed | 1<<uint(w)
	return s.place(i, 0)
}

// place maps rest[r:] onto untaken same-color vertices, keeping every edge
// and non-edge to the vertices already placed (0..i and rest[:r]).
func (s *autSearch) place(i, r int) bool {
	if r == s.nrest {
		return true
	}
	u := s.rest[r]
	for m := s.cand[u] &^ s.taken; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		if s.consistent(u, v, i, r) {
			s.img[u] = v
			s.taken |= 1 << uint(v)
			if s.place(i, r+1) {
				return true
			}
			s.taken &^= 1 << uint(v)
		}
	}
	return false
}

// consistent reports whether u -> v agrees with every placed vertex's image.
func (s *autSearch) consistent(u, v, i, r int) bool {
	d := s.d
	for x := 0; x <= i; x++ {
		if d.HasEdge(u, x) != d.HasEdge(v, s.img[x]) {
			return false
		}
	}
	for _, x := range s.rest[:r] {
		if d.HasEdge(u, x) != d.HasEdge(v, s.img[x]) {
			return false
		}
	}
	return true
}

// satMul returns a·b for non-negative a and b, saturated at math.MaxInt64.
func satMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// Matcher counts induced pattern embeddings in one network: the inner loop
// of the uniqueness null model and of z-scores. It holds the network in the
// layout that loop reads — CSR neighbor rows, a degree array that doubles
// as the used-vertex marks, and the adjacency bit rows — so one Matcher
// serves every pattern counted against its network and a count allocates
// nothing. A Matcher is not safe for concurrent use: build one per network
// and goroutine.
type Matcher struct {
	// offsets/targets are the CSR neighbor rows, sorted ascending, with
	// the vertex ids 0..n-1 appended to targets as the candidate row of
	// search position 0 (see CountInducedUpTo).
	offsets []int32
	targets []int32
	// avail[v] is v's degree while v is unmapped and ^degree (negative,
	// below any pattern degree) while a count has it mapped, so one load
	// answers "unused and meets the pattern degree".
	avail  []int32
	words  []uint64 // adjacency bit rows, stride words each
	stride int
}

// NewMatcher builds the matcher view of g. Like NewCSR it is a snapshot.
func NewMatcher(g *Graph) *Matcher {
	n := g.N()
	csr, adj := NewCSR(g), NewAdjBits(g)
	m := &Matcher{offsets: csr.offsets, targets: csr.targets, avail: make([]int32, n), words: adj.words, stride: adj.stride}
	for v := 0; v < n; v++ {
		m.targets = append(m.targets, int32(v))
		m.avail[v] = int32(g.Degree(v))
	}
	return m
}

// MatchPlan is a pattern compiled for Matcher: the search order fixed by
// ConnectedOrder, each position's anchor, pattern degree and induced
// adjacency to earlier positions, and |Aut(pattern)|. Build it once per
// pattern and count it against every network.
type MatchPlan struct {
	k     int
	aut   int64
	prior [MaxDense]int32  // position of an earlier neighbor (the anchor), for positions >= 1
	deg   [MaxDense]int32  // pattern degree of the vertex at each position
	need  [MaxDense]uint32 // bit q: positions q < pos and pos are adjacent (anchor excluded)
	avoid [MaxDense]uint32 // bit q: positions q < pos and pos are not adjacent
}

// NewMatchPlan compiles pattern, which must be connected (motifs are).
func NewMatchPlan(pattern *Dense) *MatchPlan {
	p := &MatchPlan{k: pattern.n, aut: AutomorphismCount(pattern)}
	if p.k == 0 {
		return p
	}
	order, prior := ConnectedOrder(pattern)
	for pos, u := range order {
		p.prior[pos] = int32(prior[pos])
		p.deg[pos] = int32(pattern.Degree(u))
		for q := 0; q < pos; q++ {
			switch {
			case !pattern.HasEdge(u, order[q]):
				p.avoid[pos] |= 1 << uint(q)
			case q != prior[pos]:
				p.need[pos] |= 1 << uint(q)
			}
		}
	}
	return p
}

// CountInducedUpTo counts vertex sets of the network whose induced subgraph
// is isomorphic to the plan's pattern, stopping as soon as the count
// reaches limit (limit <= 0 counts exhaustively). It counts injective
// mappings up to limit·|Aut| (saturated) and divides by |Aut|. maxSteps
// bounds the search (0 = unbounded); when the budget runs out, the count so
// far comes back with exact = false.
//
// The search is frozen (DESIGN.md §5): position 0 scans vertex ids
// ascending, position i scans the sorted neighbors of the vertex mapped at
// prior[i], a step is a candidate that is unused and has at least the
// pattern vertex's degree, and the count limit is checked before every
// candidate. The step budget runs out inside real uniqueness rounds, so a
// different order or step definition would change which motifs pass.
//
// alloc-budget: 0
func (m *Matcher) CountInducedUpTo(p *MatchPlan, limit int, maxSteps int64) (count int, exact bool) {
	k := p.k
	if k == 0 {
		return 0, true
	}
	// The count only moves at a full mapping, so checking the limit there
	// is checking it before every candidate.
	mapLimit := int64(math.MaxInt64)
	if limit > 0 {
		mapLimit = satMul(int64(limit), p.aut)
	}
	stepsLeft := maxSteps
	if maxSteps <= 0 {
		stepsLeft = math.MaxInt64
	}
	offsets, targets, avail, words, stride := m.offsets, m.targets, m.avail, m.words, m.stride
	// mapped[d] is the network vertex at position d and rows[d] the offset
	// of its adjacency bit row; targets[cur[d]:end[d]] are the unscanned
	// candidates there: all vertex ids at position 0, the anchor's
	// neighbor row above it.
	var mapped, cur, end [MaxDense]int32
	var rows [MaxDense]int
	cur[0], end[0] = offsets[len(avail)], int32(len(targets))
	var cnt int64
	exact = true
	d := 0
	for {
		if cur[d] == end[d] {
			if d == 0 {
				break
			}
			d--
			avail[mapped[d]] = ^avail[mapped[d]]
			continue
		}
		gv := targets[cur[d]]
		cur[d]++
		if avail[gv] < p.deg[d] {
			continue
		}
		if stepsLeft == 0 {
			exact = false
			break
		}
		stepsLeft--
		// Induced match: gv must be adjacent to the vertices at the need
		// positions and to none at the avoid positions. The test reads the
		// mapped vertices' rows, which stay cached across the scan.
		word, shift, ok := int(gv>>6), uint(gv&63), true
		for b := p.need[d]; b != 0 && ok; b &= b - 1 {
			ok = words[rows[bits.TrailingZeros32(b)]+word]>>shift&1 != 0
		}
		for b := p.avoid[d]; b != 0 && ok; b &= b - 1 {
			ok = words[rows[bits.TrailingZeros32(b)]+word]>>shift&1 == 0
		}
		if !ok {
			continue
		}
		if d == k-1 {
			if cnt++; cnt == mapLimit {
				break
			}
			continue
		}
		mapped[d], rows[d] = gv, int(gv)*stride
		avail[gv] = ^avail[gv]
		d++
		a := mapped[p.prior[d]]
		cur[d], end[d] = offsets[a], offsets[a+1]
	}
	for _, v := range mapped[:d] {
		avail[v] = ^avail[v]
	}
	return int(cnt / p.aut), exact
}

// ConnectedOrder returns an order of pattern vertices such that every
// vertex after the first is adjacent to an earlier one, plus for each
// position the index (into order) of one earlier neighbor: the max-degree
// vertex first, then always the highest-degree vertex adjacent to the
// placed set (lowest index on ties), anchored at its earliest placed
// neighbor. It is the uniqueness matcher's frozen search order (DESIGN.md
// §5), so changing it moves the build digest.
func ConnectedOrder(pattern *Dense) (order []int, prior []int) {
	k := pattern.n
	order = make([]int, 0, k)
	prior = make([]int, k)
	inOrder := make([]int, k) // vertex -> position+1, 0 = absent
	// Start from the max-degree vertex for better pruning.
	start := 0
	for v := 1; v < k; v++ {
		if pattern.Degree(v) > pattern.Degree(start) {
			start = v
		}
	}
	order = append(order, start)
	inOrder[start] = 1
	for len(order) < k {
		bestV, bestAnchor, bestDeg := -1, -1, -1
		for v := 0; v < k; v++ {
			if inOrder[v] != 0 {
				continue
			}
			for pos, w := range order {
				if pattern.HasEdge(v, w) {
					if pattern.Degree(v) > bestDeg {
						bestV, bestAnchor, bestDeg = v, pos, pattern.Degree(v)
					}
					break
				}
			}
		}
		if bestV < 0 { // disconnected pattern: append arbitrary remaining
			for v := 0; v < k; v++ {
				if inOrder[v] == 0 {
					bestV, bestAnchor = v, 0
					break
				}
			}
		}
		prior[len(order)] = bestAnchor
		order = append(order, bestV)
		inOrder[bestV] = len(order)
	}
	return order, prior
}
