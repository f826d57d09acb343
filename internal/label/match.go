package label

import (
	"sort"

	"lamofinder/internal/graph"
	"lamofinder/internal/ontology"
)

// FindConforming locates occurrences of a labeled motif in a (possibly
// different) annotated network: vertex sets whose induced subgraph embeds
// the pattern AND whose proteins' annotations conform to the per-vertex
// labels (equal or more specific than the scheme, with unannotated proteins
// conforming trivially — the paper's conformance relation). Occurrences are
// returned in pattern-vertex order, deduplicated by vertex set, up to limit
// (0 = all). This is how a motif dictionary mined on one interactome is
// applied to another.
func FindConforming(g *graph.Graph, c *ontology.Corpus, lm *LabeledMotif, limit int) [][]int32 {
	o := c.Ontology()
	k := lm.Size()
	if k == 0 || k > g.N() {
		return nil
	}
	// Connected matching order over the pattern.
	order, prior := graph.ConnectedOrder(lm.Pattern)
	mapped := make([]int, k)
	used := make([]bool, g.N())
	seenSets := map[string]bool{}
	var out [][]int32

	var rec func(pos int) bool // returns true to stop (limit reached)
	rec = func(pos int) bool {
		if pos == k {
			set := make([]int32, k)
			for p, u := range order {
				set[u] = int32(mapped[p])
			}
			sorted := append([]int32(nil), set...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			kb := make([]byte, 4*len(sorted))
			for i, v := range sorted {
				kb[4*i] = byte(v)
				kb[4*i+1] = byte(v >> 8)
				kb[4*i+2] = byte(v >> 16)
				kb[4*i+3] = byte(v >> 24)
			}
			if seenSets[string(kb)] {
				return false
			}
			seenSets[string(kb)] = true
			out = append(out, set)
			return limit > 0 && len(out) >= limit
		}
		u := order[pos]
		try := func(gv int) bool {
			if used[gv] || !vertexConforms(o, lm.Labels[u], c.Terms(gv)) {
				return false
			}
			for p := 0; p < pos; p++ {
				if lm.Pattern.HasEdge(u, order[p]) != g.HasEdge(gv, mapped[p]) {
					return false
				}
			}
			mapped[pos] = gv
			used[gv] = true
			stop := rec(pos + 1)
			used[gv] = false
			return stop
		}
		if pos == 0 {
			for gv := 0; gv < g.N(); gv++ {
				if try(gv) {
					return true
				}
			}
			return false
		}
		anchor := mapped[prior[pos]]
		for _, gv := range g.Neighbors(anchor) {
			if try(int(gv)) {
				return true
			}
		}
		return false
	}
	rec(0)
	return out
}
