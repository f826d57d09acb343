// Package cluster provides the clustering and assignment substrates used by
// LaMoFinder and the prediction baselines: optimal assignment (Hungarian
// algorithm), the agglomerative driver that clusters motif occurrences, and
// BIONJ-style neighbor joining for PRODISTIN.
package cluster

import "math"

// MaxAssignment solves the maximum-score assignment problem for the square
// score matrix s (s[i][j] = score of pairing row i with column j) and
// returns the column assigned to each row plus the total score. It runs the
// O(n^3) Hungarian (Kuhn–Munkres) algorithm on negated scores.
func MaxAssignment(s [][]float64) (assign []int, total float64) {
	n := len(s)
	if n == 0 {
		return nil, 0
	}
	flat := make([]float64, 0, n*n)
	for _, row := range s {
		flat = append(flat, row[:n]...)
	}
	assign = make([]int, n)
	return assign, MaxAssignmentInto(flat, n, assign, NewAssignScratch(n))
}

// AssignScratch is the working memory of MaxAssignmentInto: the dual
// potentials, the column matching and the per-row search state of the
// Hungarian algorithm, for problems up to the size it was made for.
type AssignScratch struct {
	u, v, minv []float64
	p, way     []int
	used       []bool
}

// NewAssignScratch returns scratch for assignment problems up to n×n.
func NewAssignScratch(n int) *AssignScratch {
	return &AssignScratch{
		u: make([]float64, n+1), v: make([]float64, n+1), minv: make([]float64, n+1),
		p: make([]int, n+1), way: make([]int, n+1), used: make([]bool, n+1),
	}
}

// MaxAssignmentInto is MaxAssignment over the row-major n×n score matrix s
// (s[i*n+j] scores row i with column j). It writes the column of each row
// into assign[:n] and returns the total, working in sc, which must have
// been made for at least n; it allocates nothing.
//
// alloc-budget: 0
func MaxAssignmentInto(s []float64, n int, assign []int, sc *AssignScratch) (total float64) {
	if n == 0 {
		return 0
	}
	// Min-cost on negated scores, classic potentials formulation; row i0
	// of the cost matrix is -s[(i0-1)*n:], 1-based like the potentials.
	const inf = math.MaxFloat64 / 4
	u, v, minv := sc.u[:n+1], sc.v[:n+1], sc.minv[:n+1]
	p, way, used := sc.p[:n+1], sc.way[:n+1], sc.used[:n+1] // p[j] = row matched to column j
	clear(u)
	clear(v)
	clear(p)
	clear(way)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j], used[j] = inf, false
		}
		for {
			used[j0] = true
			i0, delta, j1 := p[j0], inf, 0
			row := s[(i0-1)*n : i0*n]
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := -row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
		}
	}
	for i := 0; i < n; i++ {
		total += s[i*n+assign[i]]
	}
	return total
}
