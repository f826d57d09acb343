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
	// Exact reports whether every randomized count resolved within the
	// step/count budget; inexact rows should be read as bounds.
	Exact bool
}

// ScoreZ computes z-scores for each motif against the cfg.Networks
// randomized networks ScoreUniqueness counts over, fanned out over
// cfg.Parallelism workers with the same result at any setting. Counting
// uses the same step budget as ScoreUniqueness; randomized counts are
// capped at CountCap (so ultra-common patterns get truncated, conservative
// z-scores).
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
			counts[i][r], exact[i][r] = float64(cnt), ok
		}
	})
	for i, m := range motifs {
		mean, std := meanStd(counts[i])
		z := 0.0
		switch {
		case std > 0:
			z = (float64(m.Frequency) - mean) / std
		case float64(m.Frequency) > mean:
			z = math.Inf(1)
		case float64(m.Frequency) < mean:
			z = math.Inf(-1)
		}
		out[i] = ZScore{
			Real:     m.Frequency,
			RandMean: mean,
			RandStd:  std,
			Z:        z,
			Exact:    !slices.Contains(exact[i], false),
		}
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
