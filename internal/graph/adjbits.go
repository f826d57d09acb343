package graph

import "math/bits"

// AdjBits is a dense adjacency bitmap over a Graph's vertices, answering
// HasEdge in one word load instead of a binary search of the sorted
// neighbor list. The uniqueness matcher builds one per randomized network
// and reuses it across every pattern counted there; the ESU census and the
// beam miner build one per mining pass and run their exclusive-neighborhood
// kernels on its rows. At the paper's network scale (~4k vertices) a bitmap
// costs ~2 MB, amortized over dozens of patterns.
type AdjBits struct {
	stride int // words per row
	words  []uint64
}

// NewAdjBits builds the adjacency bitmap of g.
func NewAdjBits(g *Graph) *AdjBits {
	n := g.N()
	stride := (n + 63) / 64
	a := &AdjBits{stride: stride, words: make([]uint64, n*stride)}
	for u := 0; u < n; u++ {
		row := a.words[u*stride : (u+1)*stride]
		for _, v := range g.Neighbors(u) {
			row[v>>6] |= 1 << uint(v&63)
		}
	}
	return a
}

// Has reports whether the edge {u, v} exists.
func (a *AdjBits) Has(u, v int) bool {
	return a.words[u*a.stride+v>>6]&(1<<uint(v&63)) != 0
}

// Stride returns the number of 64-bit words per adjacency row.
func (a *AdjBits) Stride() int { return a.stride }

// ExclusiveInto writes into dst the exclusive-neighborhood word mask of w:
// row(w) with every bit <= root and every bit of covered cleared. covered
// is the union of the current subgraph's membership and adjacency masks, so
// the surviving bits are exactly ESU's extension candidates — neighbors of
// w above the root that are neither in the subgraph nor adjacent to it.
// dst and covered must both have Stride() words. It returns the number of
// surviving candidates.
//
// alloc-budget: 0
func (a *AdjBits) ExclusiveInto(dst, covered []uint64, w, root int) int {
	row := a.words[w*a.stride : (w+1)*a.stride]
	rw := root >> 6
	cnt := 0
	for i := rw; i < len(row); i++ {
		m := row[i] &^ covered[i]
		if i == rw {
			m &^= 1<<uint(root&63+1) - 1 // clear bits <= root
		}
		dst[i] = m
		cnt += bits.OnesCount64(m)
	}
	for i := 0; i < rw && i < len(dst); i++ {
		dst[i] = 0
	}
	return cnt
}

// OrRowInto ORs the adjacency row of u plus u's own membership bit into
// acc: one step of maintaining the "covered" mask (subgraph vertices and
// everything adjacent to them) as the enumeration pushes u.
//
// alloc-budget: 0
func (a *AdjBits) OrRowInto(acc []uint64, u int) {
	row := a.words[u*a.stride : (u+1)*a.stride]
	for i := range row {
		acc[i] |= row[i]
	}
	acc[u>>6] |= 1 << uint(u&63)
}
