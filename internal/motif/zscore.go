package motif

import (
	"math"
	"math/rand"

	"lamofinder/internal/graph"
	"lamofinder/internal/randnet"
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

// ScoreZ computes z-scores for each motif against cfg.Networks randomized
// networks. Counting uses the same caps as ScoreUniqueness; randomized
// counts are capped at CountCap (so ultra-common patterns get truncated,
// conservative z-scores).
func ScoreZ(g *graph.Graph, motifs []*Motif, cfg UniquenessConfig) []ZScore {
	out := make([]ZScore, len(motifs))
	if cfg.Networks <= 0 {
		return out
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	counts := make([][]float64, len(motifs))
	exact := make([]bool, len(motifs))
	for i := range exact {
		exact[i] = true
	}
	plans := matchPlans(motifs)
	for r := 0; r < cfg.Networks; r++ {
		mt := graph.NewMatcher(randnet.Randomize(g, rng))
		for i := range motifs {
			limit := 0
			if cfg.CountCap > 0 {
				limit = cfg.CountCap
			}
			cnt, ok := mt.CountInducedUpTo(plans[i], limit, cfg.MaxSteps)
			if !ok {
				exact[i] = false
			}
			counts[i] = append(counts[i], float64(cnt))
		}
	}
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
			Exact:    exact[i],
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
