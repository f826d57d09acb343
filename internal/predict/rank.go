package predict

import "sort"

// Ranked is one (function, score) prediction from a scorer.
type Ranked struct {
	Function int
	Score    float64
}

// Before is the ranking's strict total order: descending score, ties
// broken toward the smaller function index. It is the one rule every
// function ranking follows — TopK, the artifact decoder's validation of
// stored rankings, leave-one-out evaluation and Figure 8. Written as two
// inequalities so tie detection never compares computed floats with ==.
func (a Ranked) Before(b Ranked) bool {
	if a.Score > b.Score {
		return true
	}
	if a.Score < b.Score {
		return false
	}
	return a.Function < b.Function
}

// TopK ranks a scorer's output vector: every positive score, sorted by
// Before, truncated to the k best (k <= 0 means no truncation). Zero- and
// negative-score functions are dropped — a scorer that found no evidence
// predicts nothing. The ordering is a pure function of the score vector,
// so every consumer (the score index, the serving daemon, lamoctl, lamod
// query, the experiments) renders identical rankings.
func TopK(scores []float64, k int) []Ranked {
	ranked := make([]Ranked, 0, len(scores))
	for f, s := range scores {
		if s > 0 {
			ranked = append(ranked, Ranked{Function: f, Score: s})
		}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].Before(ranked[j]) })
	if k > 0 && len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked
}
