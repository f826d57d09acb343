package predict

import "math"

// NC is the Neighbor Counting method of Schwikowski et al.: a protein is
// scored by how often each function occurs among its direct interaction
// partners.
type NC struct{ t *Task }

// NewNC returns a neighbor-counting scorer for the task.
func NewNC(t *Task) *NC { return &NC{t: t} }

// Name implements Scorer.
func (n *NC) Name() string { return "NC" }

// Scores implements Scorer: raw neighbor frequency per function.
func (n *NC) Scores(p int) []float64 {
	counts, _ := neighborFunctionCounts(n.t, p)
	return counts
}

// ChiSquare is the method of Hishigaki et al.: functions are ranked by the
// chi-square statistic of their observed neighbor frequency against the
// expectation from the genome-wide function frequency.
type ChiSquare struct {
	t      *Task
	priors []float64
}

// NewChiSquare returns a chi-square scorer for the task.
func NewChiSquare(t *Task) *ChiSquare {
	return &ChiSquare{t: t, priors: t.Priors()}
}

// Name implements Scorer.
func (c *ChiSquare) Name() string { return "Chi2" }

// Scores implements Scorer: signed chi-square per function — positive when
// the function is over-represented in the neighborhood, negative when
// under-represented, so enrichment ranks above depletion.
func (c *ChiSquare) Scores(p int) []float64 {
	counts, annotated := neighborFunctionCounts(c.t, p)
	out := make([]float64, c.t.NumFunctions)
	if annotated == 0 {
		return out
	}
	for f := range out {
		e := float64(float64(annotated) * c.priors[f]) // no fused multiply-add (make fma)
		if e <= 0 {
			continue
		}
		d := counts[f] - e
		out[f] = d * math.Abs(d) / e
	}
	return out
}

// MRF is a Deng-style Markov-random-field predictor: for each function an
// auto-logistic model P(X_p = 1 | neighbors) = sigmoid(a + b*M1 + c*M0) is
// fitted by pseudo-likelihood (logistic regression over the annotated
// proteins), where M1/M0 count annotated neighbors with/without the
// function. Scoring a protein clamps its neighbors to their observed labels
// — the one-sweep belief estimate.
type MRF struct {
	t      *Task
	params [][3]float64 // per function: a, b, c
}

// MRFIterations is the number of gradient steps used in fitting.
const MRFIterations = 200

// NewMRF fits the per-function auto-logistic models.
func NewMRF(t *Task) *MRF {
	m := &MRF{t: t, params: make([][3]float64, t.NumFunctions)}
	// Collect features once per protein.
	type row struct {
		m1, m0 []float64
		ann    bool
	}
	rows := make([]row, t.Network.N())
	for p := 0; p < t.Network.N(); p++ {
		counts, annotated := neighborFunctionCounts(t, p)
		m1 := counts
		m0 := make([]float64, t.NumFunctions)
		for f := range m0 {
			m0[f] = float64(annotated) - m1[f]
		}
		rows[p] = row{m1: m1, m0: m0, ann: t.Annotated(p)}
	}
	for f := 0; f < t.NumFunctions; f++ {
		a, b, c := 0.0, 0.0, 0.0
		lr := 0.05
		for it := 0; it < MRFIterations; it++ {
			var ga, gb, gc float64
			n := 0
			for p := range rows {
				if !rows[p].ann {
					continue
				}
				n++
				y := 0.0
				if t.Has(p, f) {
					y = 1
				}
				x1, x0 := rows[p].m1[f], rows[p].m0[f]
				// Each conversion rounds its product, so no architecture
				// fuses it into the sum (make fma).
				pr := sigmoid(a + float64(b*x1) + float64(c*x0))
				g := y - pr
				ga += g
				gb += float64(g * x1)
				gc += float64(g * x0)
			}
			if n == 0 {
				break
			}
			a += lr * ga / float64(n)
			b += lr * gb / float64(n)
			c += lr * gc / float64(n)
		}
		m.params[f] = [3]float64{a, b, c}
	}
	return m
}

// Name implements Scorer.
func (m *MRF) Name() string { return "MRF" }

// Scores implements Scorer: fitted posterior per function.
func (m *MRF) Scores(p int) []float64 {
	counts, annotated := neighborFunctionCounts(m.t, p)
	out := make([]float64, m.t.NumFunctions)
	for f := range out {
		x1 := counts[f]
		x0 := float64(annotated) - x1
		pr := m.params[f]
		out[f] = sigmoid(pr[0] + float64(pr[1]*x1) + float64(pr[2]*x0)) // no fused multiply-add (make fma)
	}
	return out
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
