package graph

import "math/bits"

// IsoMapping returns a vertex mapping m (m[i] = vertex of b corresponding to
// vertex i of a) witnessing an isomorphism between a and b, or nil if none
// exists. The motif miner uses it to express each occurrence in the class
// representative's vertex order.
func IsoMapping(a, b *Dense) []int {
	mapping := make([]int, a.n)
	if !IsoMappingInto(a, b, mapping) {
		return nil
	}
	return mapping
}

// IsoMappingInto is IsoMapping writing the mapping into mapping[:a.N()]
// instead of a fresh slice; it reports whether a and b are isomorphic. The
// search is IsoMapping's exactly — candidates from WL color classes, tried
// in ascending vertex order — so both return the same mapping. It performs
// no allocation.
//
// alloc-budget: 0
func IsoMappingInto(a, b *Dense, mapping []int) bool {
	return isoMappings(a, b, mapping, nil)
}

// isoMappings runs the one undirected isomorphism search, from a onto b,
// writing each mapping into mapping[:a.N()]. Vertex u of a may map only to
// vertices of b with u's WL color; a's vertices are placed in index order
// and candidates tried in ascending order. With each nil it stops at the
// first mapping; otherwise it calls each at every mapping, in search
// order, until each returns true. It reports whether the search stopped.
// IsoMappingInto, Isomorphic, the classifier and Automorphisms all run it.
func isoMappings(a, b *Dense, mapping []int, each func() bool) bool {
	n := a.n
	if n != b.n || a.M() != b.M() {
		return false
	}
	var caArr, cbArr [MaxDense]uint64
	wlColors(a, &caArr)
	wlColors(b, &cbArr)
	ca, cb := caArr[:n], cbArr[:n]
	s := isoSearch{a: a, b: b, n: n, mapping: mapping[:n], each: each}
	for u := 0; u < n; u++ {
		var m uint32
		for v := 0; v < n; v++ {
			if ca[u] == cb[v] {
				m |= 1 << uint(v)
			}
		}
		if m == 0 {
			return false
		}
		s.cand[u] = m
	}
	return s.rec(0)
}

// isoSearch is the stack-resident state of isoMappings' backtracking
// search: per-vertex candidate masks of b, the set of b vertices used, the
// mapping being built and the hook that receives complete ones.
type isoSearch struct {
	a, b    *Dense
	n       int
	cand    [MaxDense]uint32
	usedB   uint32
	mapping []int
	// each, when set, is called at every complete mapping and returns true
	// to stop; nil stops at the first.
	each func() bool
}

// rec extends the partial mapping of a's vertices [0, u) to vertex u.
//
// alloc-budget: 0
func (s *isoSearch) rec(u int) bool {
	if u == s.n {
		return s.each == nil || s.each()
	}
	for m := s.cand[u] &^ s.usedB; m != 0; {
		v := bits.TrailingZeros32(m)
		m &= m - 1
		ok := true
		for p := 0; p < u; p++ {
			if s.a.HasEdge(u, p) != s.b.HasEdge(v, s.mapping[p]) {
				ok = false
				break
			}
		}
		if ok {
			s.mapping[u] = v
			s.usedB |= 1 << uint(v)
			if s.rec(u + 1) {
				return true
			}
			s.usedB &^= 1 << uint(v)
		}
	}
	return false
}
