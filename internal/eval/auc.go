package eval

import (
	"sort"

	"lamofinder/internal/floats"
	"lamofinder/internal/predict"
)

// AUC returns, per function, the area under the ROC curve of the scorer
// over all annotated proteins (leave-one-out semantics are inherited from
// the scorer). Functions with no positive or no negative annotated protein
// get NaN-free 0.5 (uninformative). The second result is the macro average
// over functions with at least one positive.
func AUC(t *predict.Task, s predict.Scorer) (perFunction []float64, macro float64) {
	n := t.Network.N()
	type row struct {
		scores []float64
		truth  []bool
	}
	// Collect scores once per protein.
	var proteins []int
	for p := 0; p < n; p++ {
		if t.Annotated(p) {
			proteins = append(proteins, p)
		}
	}
	all := make([][]float64, len(proteins))
	for i, p := range proteins {
		all[i] = s.Scores(p)
	}
	perFunction = make([]float64, t.NumFunctions)
	used := 0
	for f := 0; f < t.NumFunctions; f++ {
		type sc struct {
			v   float64
			pos bool
		}
		rows := make([]sc, 0, len(proteins))
		pos, neg := 0, 0
		for i, p := range proteins {
			isPos := t.Has(p, f)
			if isPos {
				pos++
			} else {
				neg++
			}
			rows = append(rows, sc{all[i][f], isPos})
		}
		if pos == 0 || neg == 0 {
			perFunction[f] = 0.5
			continue
		}
		// AUC via the rank-sum formulation with midrank tie handling.
		sort.Slice(rows, func(a, b int) bool { return rows[a].v < rows[b].v })
		rankSum := 0.0
		i := 0
		for i < len(rows) {
			j := i
			for j < len(rows) && floats.Eq(rows[j].v, rows[i].v) {
				j++
			}
			// The average 1-based rank of the tie group. The compiler turns
			// each halving, here and below, into a product by 0.5; the
			// conversion rounds it on its own, so no architecture fuses it
			// into the sum (make fma).
			mid := float64(float64(i+j+1) / 2)
			for k := i; k < j; k++ {
				if rows[k].pos {
					rankSum += mid
				}
			}
			i = j
		}
		auc := (rankSum - float64(float64(pos)*float64(pos+1)/2)) / (float64(pos) * float64(neg))
		perFunction[f] = auc
		macro += auc
		used++
	}
	if used > 0 {
		macro /= float64(used)
	} else {
		macro = 0.5
	}
	return perFunction, macro
}
