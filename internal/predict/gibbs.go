package predict

import "math/rand"

// GibbsMRF is the fuller Markov-random-field predictor in the spirit of
// Deng et al.: per function, an auto-logistic joint over all proteins whose
// unannotated labels are integrated out by Gibbs sampling, instead of the
// one-sweep conditional of MRF. Posteriors for annotated proteins are the
// averaged full conditionals with the protein treated as unobserved (its
// clamped value never enters its own conditional; residual influence via
// two-hop neighbors is the standard approximation in leave-one-out use).
type GibbsMRF struct {
	t *Task
	// posterior[f][p] = P(protein p has function f | observed labels).
	posterior [][]float64
}

// GibbsConfig sizes the sampler.
type GibbsConfig struct {
	Sweeps int // sampling sweeps after burn-in
	BurnIn int
	Seed   int64
}

// DefaultGibbsConfig balances mixing and run time for networks in the low
// thousands of proteins.
func DefaultGibbsConfig() GibbsConfig {
	return GibbsConfig{Sweeps: 60, BurnIn: 20, Seed: 1}
}

// NewGibbsMRF fits the per-function models and runs the sampler once,
// precomputing every protein's posterior.
func NewGibbsMRF(t *Task, cfg GibbsConfig) *GibbsMRF {
	if cfg.Sweeps <= 0 {
		cfg.Sweeps = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := NewMRF(t) // pseudo-likelihood parameter fit
	n := t.Network.N()
	g := &GibbsMRF{t: t, posterior: make([][]float64, t.NumFunctions)}

	var unannotated []int
	for p := 0; p < n; p++ {
		if !t.Annotated(p) {
			unannotated = append(unannotated, p)
		}
	}

	for f := 0; f < t.NumFunctions; f++ {
		pr := base.params[f]
		cond := func(p int, x []int8) float64 {
			m1, m0 := 0.0, 0.0
			for _, q := range t.Network.Neighbors(p) {
				switch x[q] {
				case 1:
					m1++
				case 0:
					m0++
				}
			}
			return sigmoid(pr[0] + pr[1]*m1 + pr[2]*m0)
		}
		// State: -1 unknown (never observed, currently unset), 0/1 known or
		// sampled.
		x := make([]int8, n)
		for p := 0; p < n; p++ {
			switch {
			case t.Annotated(p) && t.Has(p, f):
				x[p] = 1
			case t.Annotated(p):
				x[p] = 0
			default:
				x[p] = -1
			}
		}
		// Initialize unknowns from their conditional given the observed.
		for _, p := range unannotated {
			if rng.Float64() < cond(p, x) {
				x[p] = 1
			} else {
				x[p] = 0
			}
		}
		post := make([]float64, n)
		for sweep := 0; sweep < cfg.BurnIn+cfg.Sweeps; sweep++ {
			for _, p := range unannotated {
				if rng.Float64() < cond(p, x) {
					x[p] = 1
				} else {
					x[p] = 0
				}
			}
			if sweep < cfg.BurnIn {
				continue
			}
			// Accumulate: unannotated proteins contribute their sampled
			// state, annotated ones their held-out conditional.
			for p := 0; p < n; p++ {
				if t.Annotated(p) {
					post[p] += cond(p, x)
				} else if x[p] == 1 {
					post[p]++
				}
			}
		}
		for p := range post {
			post[p] /= float64(cfg.Sweeps)
		}
		g.posterior[f] = post
	}
	return g
}

// Name implements Scorer.
func (g *GibbsMRF) Name() string { return "MRF-Gibbs" }

// Scores implements Scorer.
func (g *GibbsMRF) Scores(p int) []float64 {
	out := make([]float64, g.t.NumFunctions)
	for f := range out {
		out[f] = g.posterior[f][p]
	}
	return out
}
