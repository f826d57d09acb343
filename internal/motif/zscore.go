package motif

import (
	"math"
	"slices"

	"lamofinder/internal/graph"
	"lamofinder/internal/par"
)

// ZScore holds the Milo-style over-representation statistics of one motif:
// Z = (realCount - mean(randCount)) / std(randCount). The paper's
// uniqueness fraction is a coarser variant of the same null-model idea;
// z-scores are the field's standard and provided as an extension.
type ZScore struct {
	Real     int
	RandMean float64
	RandStd  float64
	Z        float64
	// Exact reports whether every randomized count resolved below CountCap
	// within the step budget. A count stopped at the cap or by the budget
	// is a lower bound, so an inexact row's RandMean is a lower bound and
	// its Z is 0: no z follows from bounds.
	Exact bool
}

// ScoreZ computes z-scores for each motif against the cfg.Networks
// randomized networks ScoreUniqueness counts over, fanned out over
// cfg.Parallelism workers with the same result at any setting. Counting
// uses the same step budget as ScoreUniqueness and stops at CountCap, so
// ultra-common patterns get inexact rows.
func ScoreZ(g *graph.Graph, motifs []*Motif, cfg UniquenessConfig) []ZScore {
	out := make([]ZScore, len(motifs))
	if cfg.Networks <= 0 {
		return out
	}
	plans := matchPlans(motifs)
	// counts[i][r] and exact[i][r] are motif i's count on network r; each
	// network's worker writes only its own column.
	counts := make([][]float64, len(motifs))
	exact := make([][]bool, len(motifs))
	for i := range motifs {
		counts[i] = make([]float64, cfg.Networks)
		exact[i] = make([]bool, cfg.Networks)
	}
	par.Do(cfg.Networks, par.Workers(cfg.Parallelism), func(r int) {
		mt := cfg.nullMatcher(g, r)
		for i := range motifs {
			cnt, ok := mt.CountInducedUpTo(plans[i], cfg.CountCap, cfg.MaxSteps)
			// The matcher calls a count that stopped at its limit exact;
			// here the limit is the cap, so that count is only a bound.
			counts[i][r], exact[i][r] = float64(cnt), ok && (cfg.CountCap <= 0 || cnt < cfg.CountCap)
		}
	})
	for i, m := range motifs {
		mean, std := meanStd(counts[i])
		z := ZScore{Real: m.Frequency, RandMean: mean, RandStd: std, Exact: !slices.Contains(exact[i], false)}
		switch {
		case !z.Exact:
		case std > 0:
			z.Z = (float64(m.Frequency) - mean) / std
		case float64(m.Frequency) > mean:
			z.Z = math.Inf(1)
		case float64(m.Frequency) < mean:
			z.Z = math.Inf(-1)
		}
		out[i] = z
	}
	return out
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
