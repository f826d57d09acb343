// Package dimotif extends the reproduction with labeled *directed* network
// motifs — the paper's stated further work ("we plan to look into mining
// labeled and directed network motifs"). It provides a directed graph
// substrate, directed isomorphism classes and symmetry groups, a directed
// beam miner with an in/out-degree-preserving null model, and a bridge that
// labels directed motifs with the existing LaMoFinder machinery.
package dimotif

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"lamofinder/internal/graph"
)

// DiDense is a small directed simple graph stored as out-adjacency bit
// rows (n <= graph.MaxDense). Used for directed motif patterns.
type DiDense struct {
	n   int
	out [graph.MaxDense]uint32
}

// N returns the vertex count.
func (d *DiDense) N() int { return d.n }

// Reset clears d back to n isolated vertices in place, letting the miner
// reuse one DiDense as scratch instead of allocating per candidate set.
//
// invariant: 0 <= n <= graph.MaxDense — the bit-row representation cannot
// hold more vertices; an out-of-range size is a programmer error.
func (d *DiDense) Reset(n int) {
	if n < 0 || n > graph.MaxDense {
		panic(fmt.Sprintf("dimotif: size %d out of range", n))
	}
	for i := 0; i < d.n; i++ {
		d.out[i] = 0
	}
	d.n = n
}

// AppendBits appends the raw arc-bits key of d to buf and returns the
// extended slice: the directed analogue of Dense.AppendBits, probed through
// a reused scratch buffer by the classifier's raw-shape cache.
//
// alloc-budget: 0
func (d *DiDense) AppendBits(buf []byte) []byte {
	buf = append(buf, byte(d.n))
	for i := 0; i < d.n; i++ {
		r := d.out[i]
		buf = append(buf, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
	}
	return buf
}

// M returns the arc count.
func (d *DiDense) M() int {
	m := 0
	for i := 0; i < d.n; i++ {
		m += bits.OnesCount32(d.out[i])
	}
	return m
}

// AddArc adds the arc u -> v; self-loops are ignored.
func (d *DiDense) AddArc(u, v int) {
	if u == v {
		return
	}
	d.out[u] |= 1 << uint(v)
}

// HasArc reports whether the arc u -> v exists.
func (d *DiDense) HasArc(u, v int) bool { return d.out[u]&(1<<uint(v)) != 0 }

// OutDegree returns the out-degree of v.
func (d *DiDense) OutDegree(v int) int { return bits.OnesCount32(d.out[v]) }

// InDegree returns the in-degree of v.
func (d *DiDense) InDegree(v int) int {
	c := 0
	for u := 0; u < d.n; u++ {
		if u != v && d.HasArc(u, v) {
			c++
		}
	}
	return c
}

// Underlying returns the undirected skeleton (u~v iff u->v or v->u).
func (d *DiDense) Underlying() *graph.Dense {
	u := graph.NewDense(d.n)
	for i := 0; i < d.n; i++ {
		for j := i + 1; j < d.n; j++ {
			if d.HasArc(i, j) || d.HasArc(j, i) {
				u.AddEdge(i, j)
			}
		}
	}
	return u
}

// Clone returns a copy.
func (d *DiDense) Clone() *DiDense {
	c := *d
	return &c
}

// String renders the arc list, e.g. "3:[0>1 1>2 2>0]".
func (d *DiDense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:[", d.n)
	first := true
	for i := 0; i < d.n; i++ {
		for j := 0; j < d.n; j++ {
			if d.HasArc(i, j) {
				if !first {
					b.WriteByte(' ')
				}
				first = false
				fmt.Fprintf(&b, "%d>%d", i, j)
			}
		}
	}
	b.WriteByte(']')
	return b.String()
}

// wlColorsDir computes refinement colors separating in- and out-
// neighborhood multisets: an isomorphism-invariant directed signature.
func wlColorsDir(d *DiDense) []uint64 {
	var curArr, nextArr, bufArr [graph.MaxDense]uint64
	n := d.n
	cur, next := curArr[:n], nextArr[:n]
	for v := 0; v < n; v++ {
		cur[v] = uint64(d.OutDegree(v))<<16 | uint64(d.InDegree(v))
	}
	for round := 0; round < 3; round++ {
		for v := 0; v < n; v++ {
			h := cur[v]*0x9e3779b97f4a7c15 + 0x517cc1b727220a95
			// Out-neighbors.
			buf := bufArr[:0]
			for m := d.out[v]; m != 0; m &= m - 1 {
				buf = append(buf, cur[bits.TrailingZeros32(m)])
			}
			slices.Sort(buf)
			for _, c := range buf {
				h = (h ^ c) * 0x100000001b3
			}
			h = h*0x9e3779b97f4a7c15 + 0xabcdef1234567891
			// In-neighbors.
			buf = bufArr[:0]
			for u := 0; u < n; u++ {
				if u != v && d.HasArc(u, v) {
					buf = append(buf, cur[u])
				}
			}
			slices.Sort(buf)
			for _, c := range buf {
				h = (h ^ c) * 0x100000001b3
			}
			next[v] = h
		}
		cur, next = next, cur
	}
	out := make([]uint64, n)
	copy(out, cur)
	return out
}

// Invariant returns an isomorphism-invariant hash of d.
func Invariant(d *DiDense) uint64 {
	cols := wlColorsDir(d)
	slices.Sort(cols)
	h := uint64(d.n)*0x9e3779b97f4a7c15 + uint64(d.M())
	for _, c := range cols {
		h = (h ^ c) * 0x100000001b3
	}
	return h
}

// vf2DirMap finds an isomorphism mapping from a to b (nil if none).
func vf2DirMap(a, b *DiDense) []int {
	mapping := make([]int, a.n)
	if !dirMappings(a, b, mapping, nil) {
		return nil
	}
	return mapping
}

// Automorphisms enumerates the automorphisms of d, up to cap (0 = no cap),
// in the isomorphism search's order from d onto itself.
func Automorphisms(d *DiDense, cap int) [][]int {
	var out [][]int
	mapping := make([]int, d.n)
	dirMappings(d, d, mapping, func() bool {
		out = append(out, append([]int(nil), mapping...))
		return cap > 0 && len(out) >= cap
	})
	return out
}

// dirMappings runs the one directed isomorphism search, from a onto b,
// writing each mapping into mapping[:a.N()]. Vertex u of a may map only to
// vertices of b with u's directed WL color; a's vertices are placed in
// index order, candidates tried in ascending order, and every arc to and
// from the placed vertices must agree. With each nil it stops at the first
// mapping; otherwise it calls each at every mapping, in search order,
// until each returns true. It reports whether the search stopped. It is
// graph's undirected search with arcs checked in both directions.
func dirMappings(a, b *DiDense, mapping []int, each func() bool) bool {
	n := a.n
	if n != b.n || a.M() != b.M() {
		return false
	}
	ca, cb := wlColorsDir(a), wlColorsDir(b)
	s := dirSearch{a: a, b: b, mapping: mapping[:n], each: each}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if ca[u] == cb[v] {
				s.cand[u] |= 1 << uint(v)
			}
		}
		if s.cand[u] == 0 {
			return false
		}
	}
	return s.rec(0)
}

// dirSearch is dirMappings' backtracking state: per-vertex candidate masks
// of b, the b vertices used, the mapping being built and the hook that
// receives complete ones.
type dirSearch struct {
	a, b    *DiDense
	cand    [graph.MaxDense]uint32
	used    uint32
	mapping []int
	each    func() bool
}

// rec extends the partial mapping of a's vertices [0, u) to vertex u.
func (s *dirSearch) rec(u int) bool {
	if u == len(s.mapping) {
		return s.each == nil || s.each()
	}
	for m := s.cand[u] &^ s.used; m != 0; {
		v := bits.TrailingZeros32(m)
		m &= m - 1
		ok := true
		for p := 0; p < u; p++ {
			if s.a.HasArc(u, p) != s.b.HasArc(v, s.mapping[p]) ||
				s.a.HasArc(p, u) != s.b.HasArc(s.mapping[p], v) {
				ok = false
				break
			}
		}
		if ok {
			s.mapping[u] = v
			s.used |= 1 << uint(v)
			if s.rec(u + 1) {
				return true
			}
			s.used &^= 1 << uint(v)
		}
	}
	return false
}

// Orbits returns the automorphism orbits (directed symmetry sets), in
// graph.OrbitsOf's order.
func Orbits(d *DiDense) [][]int {
	return graph.OrbitsOf(d.n, Automorphisms(d, 4096))
}

// Classifier interns directed graphs into isomorphism classes. Like the
// undirected graph.Classifier, identical raw arc matrices (same labeling,
// not merely isomorphic) resolve through a first-level cache probed via a
// reused scratch buffer, so repeat labeled shapes — the common case under
// beam mining — classify with zero allocations.
type Classifier struct {
	byRaw  map[string]int   // raw arc bits -> class id
	byInv  map[uint64][]int // invariant -> candidate class ids
	reps   []*DiDense
	occMap map[string][]int // raw arc bits -> rep-order mapping (see OccMapping)
	keyBuf []byte           // scratch for raw-bits lookups (no alloc on hits)
}

// NewClassifier returns an empty directed classifier.
func NewClassifier() *Classifier {
	return &Classifier{byRaw: map[string]int{}, byInv: map[uint64][]int{}}
}

// Rep returns class id's representative.
func (c *Classifier) Rep(id int) *DiDense { return c.reps[id] }

// Classify returns d's class id, allocating a new class when unseen.
func (c *Classifier) Classify(d *DiDense) int {
	c.keyBuf = d.AppendBits(c.keyBuf[:0])
	if id, ok := c.byRaw[string(c.keyBuf)]; ok {
		return id
	}
	inv := Invariant(d)
	id := -1
	for _, cid := range c.byInv[inv] {
		if vf2DirMap(c.reps[cid], d) != nil {
			id = cid
			break
		}
	}
	if id < 0 {
		id = len(c.reps)
		c.reps = append(c.reps, d.Clone())
		c.byInv[inv] = append(c.byInv[inv], id)
	}
	c.byRaw[string(c.keyBuf)] = id
	return id
}

// OccMapping returns vf2DirMap(c.Rep(id), d) for a graph d previously
// classified into class id, memoized by d's raw arc bits. Callers must
// treat the returned slice as read-only.
func (c *Classifier) OccMapping(id int, d *DiDense) []int {
	c.keyBuf = d.AppendBits(c.keyBuf[:0])
	if mp, ok := c.occMap[string(c.keyBuf)]; ok {
		return mp
	}
	mp := vf2DirMap(c.reps[id], d)
	if c.occMap == nil {
		c.occMap = map[string][]int{}
	}
	c.occMap[string(c.keyBuf)] = mp
	return mp
}
