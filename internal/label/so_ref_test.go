package label

import "math"

// This file keeps occurrence similarity SO and the Hungarian solver as they
// stood before the allocation-free rewrite, verbatim apart from the ref
// prefix, as the reference oracles for the SO core (svTable.occurrence) and
// cluster.MaxAssignmentInto: the rewrite must return the same SO bits and
// the same pairing, since SO values order the agglomeration's merges.

// refOccurrence returns SO(oi, oj) (Eq. 3) between two labeled vertex
// sequences, plus the vertex pairing that achieves it: pairing[i] is the
// position in B matched to position i of A. labelsA and labelsB give the
// term set at each motif vertex position; sym carries the pattern's
// symmetry structure. When per-orbit assignment spans exactly the
// automorphism group, each orbit's optimal pairing is found by Hungarian
// assignment (the paper's max over pair(Ia, Ib)); otherwise the pairing
// ranges over explicit automorphisms so that occurrence correspondence
// remains a valid embedding.
func (s *Sim) refOccurrence(labelsA, labelsB [][]int32, sym *Symmetry) (so float64, pairing []int) {
	nv := len(labelsA)
	if sym.ExactOrbitPairing() {
		pairing = make([]int, nv)
		total := 0.0
		for _, orb := range sym.Orbits {
			if len(orb) == 1 {
				v := orb[0]
				pairing[v] = v
				total += s.Vertex(labelsA[v], labelsB[v])
				continue
			}
			score := make([][]float64, len(orb))
			for i, va := range orb {
				score[i] = make([]float64, len(orb))
				for j, vb := range orb {
					score[i][j] = s.Vertex(labelsA[va], labelsB[vb])
				}
			}
			assign, sum := refMaxAssignment(score)
			for i, va := range orb {
				pairing[va] = orb[assign[i]]
			}
			total += sum
		}
		return total / float64(nv), pairing
	}
	// Automorphism search: cache SV values, then score each permutation.
	sv := make([][]float64, nv)
	for i := 0; i < nv; i++ {
		sv[i] = make([]float64, nv)
		for j := 0; j < nv; j++ {
			sv[i][j] = -1
		}
	}
	get := func(i, j int) float64 {
		if sv[i][j] < 0 {
			sv[i][j] = s.Vertex(labelsA[i], labelsB[j])
		}
		return sv[i][j]
	}
	best := -1.0
	var bestPerm []int
	for _, perm := range sym.Auts {
		total := 0.0
		for v := 0; v < nv; v++ {
			total += get(v, perm[v])
		}
		if total > best {
			best = total
			bestPerm = perm
		}
	}
	pairing = append([]int(nil), bestPerm...)
	return best / float64(nv), pairing
}

// refMaxAssignment solves the maximum-score assignment problem for the square
// score matrix s (s[i][j] = score of pairing row i with column j) and
// returns the column assigned to each row plus the total score. It runs the
// O(n^3) Hungarian (Kuhn–Munkres) algorithm on negated scores.
func refMaxAssignment(s [][]float64) (assign []int, total float64) {
	n := len(s)
	if n == 0 {
		return nil, 0
	}
	// Convert to min-cost with padding; classic potentials formulation.
	const inf = math.MaxFloat64 / 4
	a := make([][]float64, n+1)
	for i := 0; i <= n; i++ {
		a[i] = make([]float64, n+1)
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			a[i][j] = -s[i-1][j-1]
		}
	}
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[j] = row matched to column j
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0, delta, j1 := p[j0], inf, 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := a[i0][j] - u[i0] - v[j]
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
	assign = make([]int, n)
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
		}
	}
	for i := 0; i < n; i++ {
		total += s[i][assign[i]]
	}
	return assign, total
}
