package ontology

import (
	"math"
	"math/bits"
)

// LCAIndex answers min-weight lowest-common-ancestor queries for a fixed
// (ontology, weights) pair without walking ancestor sets per query. It
// returns exactly what Ontology.LCA returns — the common ancestor
// minimizing (weight, term index) lexicographically, or -1 when the terms
// share no ancestor — but:
//
//   - On forest-shaped ontologies (every term has at most one parent, e.g.
//     the MIPS FunCat tree), queries are O(1): the tree LCA comes from an
//     Euler tour plus a sparse-table range-minimum query, and a precomputed
//     prefix minimum over each root chain turns the tree LCA into the
//     min-weight common ancestor.
//   - On general DAGs (GO terms can have several parents), each term's
//     ancestors-including-self are packed flat, sorted by (weight, index);
//     a query scans the shorter list and probes the other term's ancestor
//     bitset, so the first hit is the answer. Because weights grow toward
//     the roots, the minimum is typically found within the first few
//     probes.
//
// The index is immutable after construction and safe for concurrent use.
type LCAIndex struct {
	o *Ontology
	w Weights

	// Forest fast path (nil sparse table means DAG path).
	forest bool
	first  []int32   // term -> first Euler-tour position
	euler  []int32   // tour position -> term
	edepth []int32   // tour position -> depth
	sparse [][]int32 // sparse[j][i] = position of min depth in [i, i+2^j)
	upMin  []int32   // term -> (weight, index)-min over its root chain
	root   []int32   // term -> tree root (forest component)

	// DAG path: CSR-packed ancestor lists, each sorted by (weight, index).
	ancOff    []int32
	ancSorted []int32
}

// NewLCAIndex builds the index for o under weights w. Construction is
// O(n log n) on forests and O(sum |ancestors| log) on DAGs; both are far
// below one all-pairs LCA sweep, which is what the label-similarity layer
// effectively performs.
func NewLCAIndex(o *Ontology, w Weights) *LCAIndex {
	x := &LCAIndex{o: o, w: w}
	forest := true
	for t := range o.parents {
		if len(o.parents[t]) > 1 {
			forest = false
			break
		}
	}
	if forest {
		x.buildForest()
	} else {
		x.buildDAG()
	}
	return x
}

// Ontology returns the ontology the index was built over.
func (x *LCAIndex) Ontology() *Ontology { return x.o }

// Weights returns the weights the index was built with.
func (x *LCAIndex) Weights() Weights { return x.w }

// better returns whichever of u, v has the lexicographically smaller
// (weight, index) — the same tie-break Ontology.LCA's ascending scan with
// strict improvement produces.
//
// alloc-budget: 0
func (x *LCAIndex) better(u, v int32) int32 {
	wu, wv := x.w[u], x.w[v]
	if wu < wv || (wu == wv && u < v) {
		return u
	}
	return v
}

func (x *LCAIndex) buildForest() {
	o := x.o
	n := len(o.ids)
	x.forest = true
	x.first = make([]int32, n)
	x.upMin = make([]int32, n)
	x.root = make([]int32, n)
	depth := make([]int32, n)
	x.euler = make([]int32, 0, 2*n)
	x.edepth = make([]int32, 0, 2*n)

	// Iterative Euler tour per root: a term is appended on entry and again
	// after each child returns, so any tree LCA is the minimum-depth term
	// between the two first occurrences.
	type frame struct{ t, ci int }
	var stk []frame
	for r := 0; r < n; r++ {
		if len(o.parents[r]) != 0 {
			continue
		}
		depth[r] = 0
		x.root[r] = int32(r)
		x.upMin[r] = int32(r)
		x.first[r] = int32(len(x.euler))
		x.euler = append(x.euler, int32(r))
		x.edepth = append(x.edepth, 0)
		stk = append(stk[:0], frame{r, 0})
		for len(stk) > 0 {
			f := &stk[len(stk)-1]
			if f.ci < len(o.childs[f.t]) {
				c := o.childs[f.t][f.ci]
				f.ci++
				depth[c] = depth[f.t] + 1
				x.root[c] = int32(r)
				x.upMin[c] = x.better(x.upMin[f.t], int32(c))
				x.first[c] = int32(len(x.euler))
				x.euler = append(x.euler, int32(c))
				x.edepth = append(x.edepth, depth[c])
				stk = append(stk, frame{c, 0})
				continue
			}
			stk = stk[:len(stk)-1]
			if len(stk) > 0 {
				p := stk[len(stk)-1].t
				x.euler = append(x.euler, int32(p))
				x.edepth = append(x.edepth, depth[p])
			}
		}
	}

	// Sparse table over tour positions: levels double the window width.
	m := len(x.euler)
	if m == 0 {
		return
	}
	levels := bits.Len(uint(m))
	x.sparse = make([][]int32, levels)
	base := make([]int32, m)
	for i := range base {
		base[i] = int32(i)
	}
	x.sparse[0] = base
	for j := 1; j < levels; j++ {
		width := 1 << j
		prev := x.sparse[j-1]
		row := make([]int32, m-width+1)
		for i := range row {
			a, b := prev[i], prev[i+width/2]
			if x.edepth[b] < x.edepth[a] {
				a = b
			}
			row[i] = a
		}
		x.sparse[j] = row
	}
}

func (x *LCAIndex) buildDAG() {
	o := x.o
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
}

// treeLCA returns the forest lowest common ancestor of a and b, or -1 when
// they lie in different trees.
//
// alloc-budget: 0
func (x *LCAIndex) treeLCA(a, b int) int32 {
	if x.root[a] != x.root[b] {
		return -1
	}
	l, r := x.first[a], x.first[b]
	if l > r {
		l, r = r, l
	}
	k := bits.Len(uint(r-l+1)) - 1
	p, q := x.sparse[k][l], x.sparse[k][int(r)-(1<<k)+1]
	if x.edepth[q] < x.edepth[p] {
		p = q
	}
	return x.euler[p]
}

// LCA returns the common ancestor of ta and tb with the minimum
// (weight, index), or -1 when the terms share no ancestor. It agrees with
// Ontology.LCA under the index's weights on every input.
//
// alloc-budget: 0
func (x *LCAIndex) LCA(ta, tb int) int {
	if x.forest {
		// Common ancestors form the chain from the tree LCA to the root;
		// upMin carries the chain's (weight, index) minimum.
		t := x.treeLCA(ta, tb)
		if t < 0 {
			return -1
		}
		return int(x.upMin[t])
	}
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

// Lin returns the Lin similarity of ta and tb under the index's weights,
// identical to Ontology.Lin (same LCA, same guards, same arithmetic) but
// without the per-query ancestor-set walk.
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
