package motif

import (
	"math/rand"

	"lamofinder/internal/graph"
	"lamofinder/internal/par"
	"lamofinder/internal/randnet"
)

// UniquenessConfig controls the randomized-network null-model test.
type UniquenessConfig struct {
	// Networks is the number of degree-preserving randomizations (Milo et
	// al. use 100..1000; 10-50 suffices for screening).
	Networks int
	// MaxSteps bounds the per-pattern matcher effort in each randomized
	// network. A round whose budget is exhausted after finding at least one
	// match cannot be certified and counts as a loss; a round that explored
	// the whole budget without completing a single embedding counts as a
	// win — for meso-scale patterns exhaustive refutation is infeasible,
	// and an empty exhaustive-size sample is strong rarity evidence (the
	// same compromise NeMoFinder's approximate counting makes).
	MaxSteps int64
	// CountCap bounds how many randomized-network matches are counted per
	// pattern. Patterns whose real frequency exceeds the cap cannot be
	// certified unique (the round counts as a loss when the randomized
	// count also reaches the cap) — ultra-common patterns such as short
	// paths are never motifs, and counting their six-digit frequencies
	// exactly would dominate the run time. 0 means no cap.
	CountCap int
	// Seed drives the randomizations.
	Seed int64
	// Parallelism caps the concurrent per-network workers
	// (0 = runtime.GOMAXPROCS(0)). Results are identical at any setting:
	// each network derives its own RNG stream from Seed and writes to its
	// own slot.
	Parallelism int
}

// DefaultUniquenessConfig returns a screening-strength null model.
func DefaultUniquenessConfig() UniquenessConfig {
	return UniquenessConfig{Networks: 20, MaxSteps: 2_000_000, CountCap: 20_000, Seed: 7}
}

// ScoreUniqueness fills in Uniqueness for each motif: the fraction of
// randomized networks whose pattern frequency does not exceed the real
// frequency. The matcher counts distinct vertex sets and stops as soon as
// the randomized count exceeds the real one, so typical cost per network is
// small. Networks are processed in parallel (one goroutine per GOMAXPROCS
// worker); each randomization derives its own seed from cfg.Seed, so
// results are deterministic regardless of worker count.
func ScoreUniqueness(g *graph.Graph, motifs []*Motif, cfg UniquenessConfig) {
	if cfg.Networks <= 0 {
		return
	}
	plans := matchPlans(motifs)
	winsPerNet := make([][]int, cfg.Networks)
	par.Do(cfg.Networks, par.Workers(cfg.Parallelism), func(r int) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*0x9e3779b9))
		mt := graph.NewMatcher(randnet.Randomize(g, rng))
		wins := make([]int, len(motifs))
		for i, m := range motifs {
			// Count up to Frequency+1 sets (capped): if the randomized
			// network has more sets than the real one, the round is
			// lost.
			limit := m.Frequency + 1
			if cfg.CountCap > 0 && limit > cfg.CountCap {
				limit = cfg.CountCap
			}
			cnt, exact := mt.CountInducedUpTo(plans[i], limit, cfg.MaxSteps)
			if !exact {
				if cnt == 0 {
					// Budget exhausted without completing one embedding:
					// the pattern is rare in the randomized network.
					wins[i]++
				}
				continue // otherwise: cannot certify this round
			}
			if cnt >= limit && limit <= m.Frequency {
				// Hit the count cap below the real frequency: cannot
				// certify.
				continue
			}
			if cnt <= m.Frequency {
				wins[i]++
			}
		}
		winsPerNet[r] = wins
	})
	for i, m := range motifs {
		total := 0
		for r := range winsPerNet {
			total += winsPerNet[r][i]
		}
		m.Uniqueness = float64(total) / float64(cfg.Networks)
	}
}

// matchPlans compiles each motif's pattern once (search order and |Aut|)
// for counting against every randomized network.
func matchPlans(motifs []*Motif) []*graph.MatchPlan {
	plans := make([]*graph.MatchPlan, len(motifs))
	for i, m := range motifs {
		plans[i] = graph.NewMatchPlan(m.Pattern)
	}
	return plans
}

// FilterUnique returns the motifs with Uniqueness >= minUniq, preserving
// order. Motifs never scored (Uniqueness < 0) are dropped.
func FilterUnique(motifs []*Motif, minUniq float64) []*Motif {
	var out []*Motif
	for _, m := range motifs {
		if m.Uniqueness >= minUniq {
			out = append(out, m)
		}
	}
	return out
}
