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
	n := a.n
	if n != b.n || a.M() != b.M() {
		return false
	}
	var caArr, cbArr [MaxDense]uint64
	wlColors(a, &caArr)
	wlColors(b, &cbArr)
	ca, cb := caArr[:n], cbArr[:n]
	s := isoSearch{a: a, b: b, n: n, mapping: mapping[:n]}
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

// isoSearch is the stack-resident state of IsoMappingInto's backtracking
// search: per-vertex candidate masks of b and the set of b vertices used.
type isoSearch struct {
	a, b    *Dense
	n       int
	cand    [MaxDense]uint32
	usedB   uint32
	mapping []int
}

// rec extends the partial mapping of a's vertices [0, u) to vertex u.
//
// alloc-budget: 0
func (s *isoSearch) rec(u int) bool {
	if u == s.n {
		return true
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
