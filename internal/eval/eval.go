// Package eval provides the leave-one-out evaluation harness behind the
// paper's Figure 9: each annotated protein's categories are hidden, every
// method ranks the candidate functions, and micro-averaged precision/recall
// are traced as the number of predicted functions per protein sweeps from 1
// to the category count.
package eval

import (
	"fmt"
	"strings"

	"lamofinder/internal/predict"
)

// PRPoint is one precision/recall operating point, at k predicted functions
// per protein.
type PRPoint struct {
	K         int
	Precision float64
	Recall    float64
}

// F1 returns the harmonic mean of precision and recall.
func (p PRPoint) F1() float64 {
	if p.Precision+p.Recall == 0 {
		return 0
	}
	return 2 * p.Precision * p.Recall / (p.Precision + p.Recall)
}

// Curve is a method's PR trace.
type Curve struct {
	Method string
	Points []PRPoint
}

// BestF1 returns the maximum F1 across the curve.
func (c Curve) BestF1() float64 {
	best := 0.0
	for _, p := range c.Points {
		if f := p.F1(); f > best {
			best = f
		}
	}
	return best
}

// AveragePrecision returns the mean precision across the curve's points, a
// single-number summary for ordering methods.
func (c Curve) AveragePrecision() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range c.Points {
		sum += p.Precision
	}
	return sum / float64(len(c.Points))
}

// LeaveOneOut evaluates a scorer with the leave-one-out protocol: for every
// annotated protein the scorer ranks all functions (scorers never see the
// query's own annotations); for each k in 1..maxK the top-k predictions are
// compared with the true categories and micro-averaged. maxK <= 0 defaults
// to the task's function count.
func LeaveOneOut(t *predict.Task, s predict.Scorer, maxK int) Curve {
	if maxK <= 0 || maxK > t.NumFunctions {
		maxK = t.NumFunctions
	}
	// correct[k] = total true positives using top-(k+1) predictions.
	correct := make([]float64, maxK)
	predicted := make([]float64, maxK)
	totalTrue := 0.0
	for p := 0; p < t.Network.N(); p++ {
		if !t.Annotated(p) {
			continue
		}
		// Only positive-scored functions count as predictions, so a
		// ranking shorter than maxK predicts nothing past its end.
		ranked := predict.TopK(s.Scores(p), maxK)
		totalTrue += float64(len(t.Functions[p]))
		hits := 0.0
		for k := 0; k < maxK; k++ {
			if k < len(ranked) {
				predicted[k] += 1
				if t.Has(p, ranked[k].Function) {
					hits++
				}
			}
			correct[k] += hits
		}
	}
	// Accumulate predictions across k: predicted[k] currently counts the
	// new prediction at rank k; make it cumulative.
	for k := 1; k < maxK; k++ {
		predicted[k] += predicted[k-1]
	}
	curve := Curve{Method: s.Name()}
	for k := 0; k < maxK; k++ {
		pt := PRPoint{K: k + 1}
		if predicted[k] > 0 {
			pt.Precision = correct[k] / predicted[k]
		}
		if totalTrue > 0 {
			pt.Recall = correct[k] / totalTrue
		}
		curve.Points = append(curve.Points, pt)
	}
	return curve
}

// FormatCurves renders curves as an aligned text table (one row per k, one
// precision/recall column pair per method), the textual analogue of the
// paper's Figure 9.
func FormatCurves(curves []Curve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s", "k")
	for _, c := range curves {
		fmt.Fprintf(&b, " | %-22s", c.Method)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-4s", "")
	for range curves {
		fmt.Fprintf(&b, " | %-10s %-11s", "precision", "recall")
	}
	b.WriteByte('\n')
	if len(curves) == 0 {
		return b.String()
	}
	for i := range curves[0].Points {
		fmt.Fprintf(&b, "%-4d", curves[0].Points[i].K)
		for _, c := range curves {
			p := c.Points[i]
			fmt.Fprintf(&b, " | %-10.3f %-11.3f", p.Precision, p.Recall)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
