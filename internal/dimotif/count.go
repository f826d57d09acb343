package dimotif

import "lamofinder/internal/graph"

// countDirUpTo counts vertex sets of g whose induced directed subgraph is
// isomorphic to pattern, stopping at limit (<= 0: exhaustive) or when the
// step budget runs out (exact = false). Counting is by distinct vertex
// sets: matched mappings divided by aut, the order of pattern's
// automorphism group, which the caller computes once per pattern.
func countDirUpTo(g *DiGraph, pattern *DiDense, aut, limit int, maxSteps int64) (count int, exact bool) {
	mapLimit := int64(0)
	if limit > 0 {
		mapLimit = int64(limit) * int64(aut)
	}
	mappings, exact := countDirMappings(g, pattern, mapLimit, maxSteps)
	return int(mappings / int64(aut)), exact
}

func countDirMappings(g *DiGraph, pattern *DiDense, mapLimit, maxSteps int64) (int64, bool) {
	k := pattern.N()
	if k == 0 {
		return 0, true
	}
	order, prior := graph.ConnectedOrder(pattern.Underlying())
	// Precompute per-position arc constraints against earlier positions.
	type constraint struct {
		pos     int
		outward bool // pattern arc order[pos_new] -> order[pos]
		inward  bool // pattern arc order[pos] -> order[pos_new]
	}
	cons := make([][]constraint, k)
	for pos := 0; pos < k; pos++ {
		u := order[pos]
		for p := 0; p < pos; p++ {
			w := order[p]
			cons[pos] = append(cons[pos], constraint{
				pos:     p,
				outward: pattern.HasArc(u, w),
				inward:  pattern.HasArc(w, u),
			})
		}
	}
	podeg := make([]int, k)
	pideg := make([]int, k)
	for v := 0; v < k; v++ {
		podeg[v] = pattern.OutDegree(v)
		pideg[v] = pattern.InDegree(v)
	}
	mapped := make([]int, k)
	used := make([]bool, g.N())
	var cnt, steps int64
	exhausted := false

	var rec func(pos int)
	rec = func(pos int) {
		if exhausted || (mapLimit > 0 && cnt >= mapLimit) {
			return
		}
		if pos == k {
			cnt++
			return
		}
		u := order[pos]
		try := func(gv int) {
			if used[gv] || g.OutDegree(gv) < podeg[u] || g.InDegree(gv) < pideg[u] {
				return
			}
			steps++
			if maxSteps > 0 && steps > maxSteps {
				exhausted = true
				return
			}
			for _, c := range cons[pos] {
				if c.outward != g.HasArc(gv, mapped[c.pos]) {
					return
				}
				if c.inward != g.HasArc(mapped[c.pos], gv) {
					return
				}
			}
			mapped[pos] = gv
			used[gv] = true
			rec(pos + 1)
			used[gv] = false
		}
		if pos == 0 {
			for gv := 0; gv < g.N(); gv++ {
				if exhausted || (mapLimit > 0 && cnt >= mapLimit) {
					return
				}
				try(gv)
			}
			return
		}
		anchor := mapped[prior[pos]]
		g.weakNeighbors(anchor, func(w int32) {
			if exhausted || (mapLimit > 0 && cnt >= mapLimit) {
				return
			}
			try(int(w))
		})
	}
	rec(0)
	if mapLimit > 0 && cnt >= mapLimit {
		return cnt, true
	}
	return cnt, !exhausted
}
