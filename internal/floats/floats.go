// Package floats centralizes float64 comparison for the scoring and
// evaluation code. Direct ==/!= between computed float64 values is
// forbidden by the lamovet floateq analyzer: similarity scores, term
// weights, and AUC ranks are produced by chains of arithmetic whose
// rounding differs across refactorings, so exact equality silently turns
// into order-dependent behavior. All equality-like decisions on computed
// floats must flow through this package so the tolerance lives in one
// place.
package floats

import "math"

// Eps is the shared comparison tolerance. It is far below the resolution
// of anything the pipeline compares (similarities in [0,1] reported to two
// decimals, z-scores, AUC ranks) and far above accumulated rounding error
// of the short arithmetic chains that produce those values.
const Eps = 1e-9

// Eq reports whether a and b are equal within Eps, scaled by magnitude so
// the tolerance is relative for large values and absolute near zero.
// NaN compares unequal to everything, matching IEEE semantics.
func Eq(a, b float64) bool {
	if a == b { // fast path; also handles infinities of the same sign
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // opposite infinities, or finite vs. infinite
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= Eps*scale
}
