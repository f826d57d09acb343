package label

import (
	"sort"

	"lamofinder/internal/floats"
	"lamofinder/internal/ontology"
)

// LeastGeneral merges two per-vertex label sets into their least general
// common scheme, exactly as the paper's Table 4 ("minimum common father
// labels"): for every cross pair of terms the minimum-weight lowest common
// ancestor is taken, and the results are unioned. An empty side yields the
// other side unchanged (unannotated proteins inherit labels, per the paper).
// The result is capped to maxTerms lowest-weight (most specific) terms when
// maxTerms > 0.
func LeastGeneral(o *ontology.Ontology, w ontology.Weights, a, b []int32, maxTerms int) []int32 {
	return leastGeneral(func(ta, tb int) int { return o.LCA(w, ta, tb) }, o, w, a, b, maxTerms)
}

// LeastGeneralIndexed is LeastGeneral against a prebuilt LCA index (built
// over the same ontology and weights); the merge loop in the labeler's
// clustering pass calls this per cross pair, so the O(1)/short-scan index
// lookup replaces a full ancestor-bitset intersection each time.
func LeastGeneralIndexed(idx *ontology.LCAIndex, a, b []int32, maxTerms int) []int32 {
	return leastGeneral(idx.LCA, idx.Ontology(), idx.Weights(), a, b, maxTerms)
}

func leastGeneral(lca func(ta, tb int) int, o *ontology.Ontology, w ontology.Weights, a, b []int32, maxTerms int) []int32 {
	if len(a) == 0 {
		return capTerms(o, w, dedup(b), maxTerms)
	}
	if len(b) == 0 {
		return capTerms(o, w, dedup(a), maxTerms)
	}
	seen := map[int32]bool{}
	var cand []int32
	for _, ta := range a {
		for _, tb := range b {
			m := lca(int(ta), int(tb))
			if m < 0 || seen[int32(m)] {
				continue
			}
			// Root-weight ancestors (w = 1) are kept here deliberately:
			// they mark over-generalized vertices and drive the border
			// stopping rule. The labeler strips them from emitted schemes.
			seen[int32(m)] = true
			cand = append(cand, int32(m))
		}
	}
	sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
	return capTerms(o, w, cand, maxTerms)
}

// capTerms keeps at most maxTerms terms, preferring the most specific
// (lowest weight); ties break on term index for determinism.
func capTerms(o *ontology.Ontology, w ontology.Weights, ts []int32, maxTerms int) []int32 {
	if maxTerms <= 0 || len(ts) <= maxTerms {
		return ts
	}
	sort.Slice(ts, func(i, j int) bool {
		wi, wj := w[ts[i]], w[ts[j]]
		if !floats.Eq(wi, wj) {
			return wi < wj
		}
		return ts[i] < ts[j]
	})
	ts = ts[:maxTerms]
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

func dedup(ts []int32) []int32 {
	if len(ts) == 0 {
		return nil
	}
	out := append([]int32(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	k := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[k-1] {
			out[k] = out[i]
			k++
		}
	}
	return out[:k]
}

// Conforms reports whether the labeling scheme (per-vertex label sets)
// conforms to an occurrence's direct annotations under the given vertex
// pairing semantics: every vertex's labels conform to the annotations of
// the corresponding occurrence vertex (see vertexConforms).
func Conforms(o *ontology.Ontology, scheme [][]int32, occLabels [][]int32) bool {
	for v := range scheme {
		if !vertexConforms(o, scheme[v], occLabels[v]) {
			return false
		}
	}
	return true
}

// vertexConforms is the per-vertex conformance rule: every scheme term must
// be equal to or more general than some annotation of the protein. An
// empty scheme ("unknown") conforms trivially, as does an unannotated
// protein (the paper derives its labels from the other occurrences).
func vertexConforms(o *ontology.Ontology, scheme, ann []int32) bool {
	if len(scheme) == 0 || len(ann) == 0 {
		return true
	}
	for _, st := range scheme {
		ok := false
		for _, at := range ann {
			if o.IsAncestorOrSelf(int(st), int(at)) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
