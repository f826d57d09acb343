// Package cluster provides the clustering and assignment substrates used by
// LaMoFinder and the prediction baselines: optimal assignment (Hungarian
// algorithm), the agglomerative driver that clusters motif occurrences, and
// BIONJ-style neighbor joining for PRODISTIN.
package cluster

import "math"

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
// At n = 2 it returns the choice the potentials make, in closed form. Each
// row takes its first best column. When both want the same column c (the
// other being o), the second row's search offers row 0 the move to o at
// reduced cost s0[c]-s0[o] against its own s1[c]-s1[o], and row 0 moves
// only when its cost is strictly lower.
//
// alloc-budget: 0
func MaxAssignmentInto(s []float64, n int, assign []int, sc *AssignScratch) (total float64) {
	if n == 0 {
		return 0
	}
	if n == 2 {
		c0, c1 := firstBest2(s[0], s[1]), firstBest2(s[2], s[3])
		if c0 != c1 {
			assign[0], assign[1] = c0, c1
		} else if c, o := c0, 1-c0; s[c]-s[o] < s[2+c]-s[2+o] {
			assign[0], assign[1] = o, c
		} else {
			assign[0], assign[1] = c, o
		}
		return total + s[assign[0]] + s[2+assign[1]]
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

// firstBest2 returns the column of the larger of a row's two scores, the
// first on a tie, as the potentials' strict minimum over negated costs
// picks it.
//
// alloc-budget: 0
func firstBest2(a, b float64) int {
	if -b < -a {
		return 1
	}
	return 0
}
