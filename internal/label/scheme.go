package label

import (
	"sort"

	"lamofinder/internal/floats"
	"lamofinder/internal/ontology"
)

// LeastGeneral merges two per-vertex label sets into their least general
// common scheme, exactly as the paper's Table 4 ("minimum common father
// labels"): for every cross pair of terms the minimum-weight lowest common
// ancestor is taken from idx, and the results are unioned. An empty side
// yields the other side unchanged (unannotated proteins inherit labels,
// per the paper). The result is capped to maxTerms lowest-weight (most
// specific) terms when maxTerms > 0.
func LeastGeneral(idx *ontology.LCAIndex, a, b []int32, maxTerms int) []int32 {
	w := idx.Weights()
	if len(a) == 0 {
		return capTerms(w, dedup(b), maxTerms)
	}
	if len(b) == 0 {
		return capTerms(w, dedup(a), maxTerms)
	}
	seen := map[int32]bool{}
	var cand []int32
	for _, ta := range a {
		for _, tb := range b {
			m := idx.LCA(int(ta), int(tb))
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
	return capTerms(w, cand, maxTerms)
}

// capTerms keeps at most maxTerms terms, preferring the most specific
// (lowest weight); ties break on term index for determinism.
func capTerms(w ontology.Weights, ts []int32, maxTerms int) []int32 {
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
