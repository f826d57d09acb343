package ontology

import "math"

// LCAIndex answers min-weight lowest-common-ancestor queries for a fixed
// (ontology, weights) pair without walking ancestor sets per query. The
// lowest common ancestor of two terms is their common ancestor (terms
// count as their own ancestors) minimizing (weight, term index)
// lexicographically: the most specific shared term, ties broken toward
// the smaller index. Each term's ancestors-including-self are packed flat,
// sorted by (weight, index); a query scans the shorter list and probes the
// other term's ancestor bitset, so the first hit is the answer. Because
// weights grow toward the roots, the minimum is typically found within the
// first few probes.
//
// The index is immutable after construction and safe for concurrent use.
type LCAIndex struct {
	o *Ontology
	w Weights

	// CSR-packed ancestor lists, each sorted by (weight, index).
	ancOff    []int32
	ancSorted []int32
}

// NewLCAIndex builds the index for o under weights w in O(sum |ancestors|
// log) time, far below one all-pairs LCA sweep, which is what the
// label-similarity layer effectively performs.
func NewLCAIndex(o *Ontology, w Weights) *LCAIndex {
	x := &LCAIndex{o: o, w: w}
	n := len(o.ids)
	x.ancOff = make([]int32, n+1)
	total := 0
	for t := 0; t < n; t++ {
		total += o.anc[t].count()
	}
	x.ancSorted = make([]int32, 0, total)
	for t := 0; t < n; t++ {
		start := len(x.ancSorted)
		o.anc[t].each(func(a int) { x.ancSorted = append(x.ancSorted, int32(a)) })
		seg := x.ancSorted[start:]
		// Insertion sort by (weight, index): ancestor lists are short
		// (ontology depth times the multi-parent factor), and the input is
		// already index-sorted, which insertion sort exploits on ties.
		for i := 1; i < len(seg); i++ {
			for j := i; j > 0 && x.better(seg[j-1], seg[j]) == seg[j]; j-- {
				seg[j], seg[j-1] = seg[j-1], seg[j]
			}
		}
		x.ancOff[t+1] = int32(len(x.ancSorted))
	}
	return x
}

// Weights returns the weights the index was built with.
func (x *LCAIndex) Weights() Weights { return x.w }

// better returns whichever of u, v has the lexicographically smaller
// (weight, index).
//
// alloc-budget: 0
func (x *LCAIndex) better(u, v int32) int32 {
	wu, wv := x.w[u], x.w[v]
	if wu < wv || (wu == wv && u < v) {
		return u
	}
	return v
}

// LCA returns the common ancestor of ta and tb with the minimum
// (weight, index), or -1 when the terms share no ancestor (distinct
// ontology roots).
//
// alloc-budget: 0
func (x *LCAIndex) LCA(ta, tb int) int {
	la := x.ancSorted[x.ancOff[ta]:x.ancOff[ta+1]]
	lb := x.ancSorted[x.ancOff[tb]:x.ancOff[tb+1]]
	probe := x.o.anc[tb]
	if len(lb) < len(la) {
		la, probe = lb, x.o.anc[ta]
	}
	for _, t := range la {
		if probe.get(int(t)) {
			return int(t)
		}
	}
	return -1
}

// Lin returns the Lin (1998) similarity between ta and tb under the
// index's weights: ST(ta,tb) = 2 ln w(lca) / (ln w(ta) + ln w(tb)), in
// [0,1]. Identical terms score 1; terms whose only shared ancestor is the
// root (weight 1) score 0; unrelated roots score 0.
//
// alloc-budget: 0
func (x *LCAIndex) Lin(ta, tb int) float64 {
	if ta == tb {
		return 1
	}
	lca := x.LCA(ta, tb)
	if lca < 0 {
		return 0
	}
	w := x.w
	wl, wa, wb := w[lca], w[ta], w[tb]
	if wa <= 0 || wb <= 0 || wl <= 0 {
		return 0
	}
	den := math.Log(wa) + math.Log(wb)
	if den == 0 { // both terms carry the full corpus; indistinguishable
		return 1
	}
	st := 2 * math.Log(wl) / den
	if st <= 0 {
		return 0 // also normalizes the -0 arising when the LCA is a root
	}
	if st > 1 {
		return 1
	}
	return st
}
