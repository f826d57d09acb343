package motif

import (
	"lamofinder/internal/graph"
)

// This file holds the arena scratch shared by the mining hot paths: the
// ESU enumeration kernels and the beam miner reuse these structures across
// every subgraph of a work chunk, so the steady-state inner loops perform
// zero allocations (see DESIGN.md §13 "Mining memory layout"). The same
// index-addressed, reuse-across-iterations pattern drove the serve path to
// 0 allocs/op.

// esuScratch is the per-worker arena for the ESU enumeration kernels: the
// growing subgraph, the depth-stacked "covered" masks (subgraph membership
// plus everything adjacent to it), a flat extension-set arena, and a
// reusable candidate mask plus sorted-output buffer. One esuScratch serves
// every subgraph enumerated by a chunk; nothing inside it escapes.
type esuScratch struct {
	g    *graph.CSR
	bits *graph.AdjBits

	sub     []int32  // current subgraph, insertion order (sub[0] is the root)
	vs      []int32  // sorted copy handed to visit callbacks; reused per leaf
	covered []uint64 // (k+1) stacked masks of stride words; segment d serves depth d
	cand    []uint64 // exclusive-neighborhood candidate mask (stride words)
	ext     []int32  // extension-set arena; [lo,hi) segments per recursion level
	top     int      // arena high-water mark of the live segments
	stride  int
	k       int
}

// newESUScratch sizes an arena for size-k enumeration over the given views.
func newESUScratch(csr *graph.CSR, bits *graph.AdjBits, k int) *esuScratch {
	stride := bits.Stride()
	return &esuScratch{
		g:       csr,
		bits:    bits,
		sub:     make([]int32, 0, k),
		vs:      make([]int32, k),
		covered: make([]uint64, (k+1)*stride),
		cand:    make([]uint64, stride),
		ext:     make([]int32, 0, 256),
		stride:  stride,
		k:       k,
	}
}

// coveredAt returns the stacked covered-mask segment for depth d.
func (s *esuScratch) coveredAt(d int) []uint64 {
	return s.covered[d*s.stride : (d+1)*s.stride]
}

// grow ensures the extension arena holds at least n entries, preserving the
// live segments below top.
func (s *esuScratch) grow(n int) {
	if n <= cap(s.ext) {
		s.ext = s.ext[:cap(s.ext)]
		return
	}
	ns := make([]int32, n+n/2)
	copy(ns, s.ext[:s.top])
	s.ext = ns
}

// sortedSub insertion-sorts the current subgraph into the reusable vs
// buffer and returns it. Motif sizes are tiny (k <= 20), where insertion
// sort beats sort.Slice and — unlike sort.Slice — performs no allocation.
//
// alloc-budget: 0
func (s *esuScratch) sortedSub() []int32 {
	vs := s.vs[:len(s.sub)]
	copy(vs, s.sub)
	insertionSort32(vs)
	return vs
}

// insertionSort32 sorts a short int32 slice ascending in place.
//
// alloc-budget: 0
func insertionSort32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// fillInduced resets d to the induced subgraph of the (sorted) vertex set
// vs, answering edge queries from the adjacency bitmap — no per-subgraph
// Dense allocation and no binary searches. (Not alloc-budget-annotated:
// Reset's out-of-range panic formats its message.)
func fillInduced(d *graph.Dense, bits *graph.AdjBits, vs []int32) {
	d.Reset(len(vs))
	for i := 1; i < len(vs); i++ {
		for j := 0; j < i; j++ {
			if bits.Has(int(vs[i]), int(vs[j])) {
				d.AddEdge(i, j)
			}
		}
	}
}

// The occurrence slab arena lives in the graph package (graph.OccArena) so
// the directed miner shares it.
