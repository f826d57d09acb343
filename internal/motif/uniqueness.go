package motif

import (
	"math/rand"
	"sort"

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
	// Parallelism caps the workers that count motifs on one randomized
	// network at a time (0 = runtime.GOMAXPROCS(0)); ScoreZ runs one
	// network per worker instead. Results are identical at any setting:
	// network r derives its own RNG stream from Seed and r, and each
	// motif's round verdict lands in its own slot.
	Parallelism int
}

// DefaultUniquenessConfig returns a screening-strength null model.
func DefaultUniquenessConfig() UniquenessConfig {
	return UniquenessConfig{Networks: 20, MaxSteps: 2_000_000, CountCap: 20_000, Seed: 7}
}

// Limit returns how many randomized-network vertex sets a uniqueness round
// counts for a motif of real frequency freq: freq+1, enough to see the
// randomized network beat the real one, capped by CountCap.
func (cfg UniquenessConfig) Limit(freq int) int {
	limit := freq + 1
	if cfg.CountCap > 0 && limit > cfg.CountCap {
		limit = cfg.CountCap
	}
	return limit
}

// Won is the verdict of one uniqueness round, given the count and exact
// flag of a search stopped at Limit(freq). A search that ran out of budget
// wins only if it completed no embedding: the pattern is rare in the
// randomized network, and a partial count certifies nothing. An exact
// count wins when it stayed below the limit, so at or below the real
// frequency; reaching the limit means the randomized network has more
// sets than the real one, or hit the count cap below the real frequency
// and cannot be certified.
func (cfg UniquenessConfig) Won(freq, count int, exact bool) bool {
	if !exact {
		return count == 0
	}
	return count < cfg.Limit(freq)
}

// Reach returns the highest Uniqueness a motif can still score after
// winning wins of its first played rounds, the fraction it reads if it wins
// every remaining one, and whether that passes minUniq by FilterUnique's
// test. After the last round the bound is the motif's Uniqueness. A motif
// that cannot pass gains nothing from its remaining rounds, so the
// scorers (ScoreUnique, and the directed one in internal/dimotif) stop
// counting it and leave the bound as its Uniqueness, below minUniq.
func (cfg UniquenessConfig) Reach(wins, played int, minUniq float64) (best float64, pass bool) {
	best = float64(wins+cfg.Networks-played) / float64(cfg.Networks)
	return best, best >= minUniq
}

// ScoreUniqueness fills in Uniqueness for each motif: the fraction of
// randomized networks whose pattern frequency does not exceed the real
// frequency. It is ScoreUnique at threshold 0, which every motif passes,
// so every motif is counted on every network.
//
// lamovet:keep bench/traced.go (the bench module, which lamovet does not load) scores every round through it
func ScoreUniqueness(g *graph.Graph, motifs []*Motif, cfg UniquenessConfig) {
	ScoreUnique(g, motifs, cfg, 0)
}

// ScoreUnique scores motifs against the null model and returns, in order,
// those whose Uniqueness reaches minUniq: the motifs FilterUnique(motifs,
// minUniq) keeps after every motif is counted on every network, with the
// same Uniqueness bits. A motif it drops reads the bound Reach dropped it
// at, below minUniq.
//
// The passes run network by network. Pass r counts on randomized network
// r (its own RNG stream from Seed and r, as ScoreZ draws it) every motif
// that can still pass, larger patterns first, spread over the workers,
// and builds network r+1 as its first task, so no worker waits for it.
// Each worker counts through its own Matcher attached to the network,
// taken from a fixed free list, so one network's rows serve all workers
// from cache. After the pass, a motif that can no longer reach minUniq
// leaves the passes. No round's search changes, and a kept motif is
// counted on every network, so the result is the same at any worker count
// and any threshold.
func ScoreUnique(g *graph.Graph, motifs []*Motif, cfg UniquenessConfig, minUniq float64) []*Motif {
	scoreRounds(g, motifs, cfg, minUniq)
	return FilterUnique(motifs, minUniq)
}

// scoreRounds runs ScoreUnique's passes and returns how many networks each
// motif was counted on.
func scoreRounds(g *graph.Graph, motifs []*Motif, cfg UniquenessConfig, minUniq float64) []int {
	played := make([]int, len(motifs))
	if cfg.Networks <= 0 {
		return played
	}
	plans := matchPlans(motifs)
	// live holds the motifs still counted, larger patterns first: they
	// cost the most, so the short counts fill the end of each pass.
	live := make([]int, len(motifs))
	for i := range live {
		live[i] = i
	}
	sort.SliceStable(live, func(a, b int) bool { return motifs[live[a]].Size() > motifs[live[b]].Size() })
	wins := make([]int, len(motifs))
	won := make([]bool, len(motifs))
	views := make([]graph.Matcher, par.Workers(cfg.Parallelism))
	free := make(chan *graph.Matcher, len(views))
	for w := range views {
		free <- &views[w]
	}
	var next *graph.Matcher // network r+1, built during pass r
	for r := 0; ; r++ {
		kept := live[:0]
		for _, i := range live {
			best, pass := cfg.Reach(wins[i], r, minUniq)
			motifs[i].Uniqueness = best
			if pass {
				kept = append(kept, i)
			}
		}
		live = kept
		if r == cfg.Networks || len(live) == 0 {
			return played
		}
		net := next
		if r == 0 {
			net = cfg.nullMatcher(g, 0)
		}
		// Between passes every view sits idle in free.
		for w := range views {
			views[w].Attach(net)
		}
		// Task 0 builds network r+1 while the others count on network r.
		// Taken first, it ends before the short counts at the pass's tail.
		build := 0
		if r+1 < cfg.Networks {
			build = 1
		}
		par.Do(build+len(live), len(views), func(j int) {
			if j < build {
				next = cfg.nullMatcher(g, r+1)
				return
			}
			i, mt := live[j-build], <-free
			cnt, exact := mt.CountInducedUpTo(plans[i], cfg.Limit(motifs[i].Frequency), cfg.MaxSteps)
			free <- mt
			won[i] = cfg.Won(motifs[i].Frequency, cnt, exact)
		})
		for _, i := range live {
			if won[i] {
				wins[i]++
			}
			played[i]++
		}
	}
}

// nullMatcher returns the matcher over randomized network r of the null
// model: a degree-preserving randomization of g drawn from its own RNG
// stream, seeded from Seed and r, so any worker builds the same network r
// and ScoreUnique and ScoreZ count over the same networks.
func (cfg UniquenessConfig) nullMatcher(g *graph.Graph, r int) *graph.Matcher {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*0x9e3779b9))
	return graph.NewMatcher(randnet.Randomize(g, rng))
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
