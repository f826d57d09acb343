package graph

// This file keeps the recursive uniqueness matcher as it stood before the
// explicit-stack rewrite, verbatim apart from the ref prefix, as the
// reference oracle for Matcher.CountInducedUpTo. The rewrite must return
// the same (count, exact) for every graph, pattern, limit and step budget:
// the step budget runs out inside real uniqueness rounds, so the order in
// which candidates are tried and counted as steps decides results.

// refCountInducedUpTo is the historical CountInducedUpToAdj entry point
// with |Aut| passed in: that function enumerated the group on every call
// (aut = len(Automorphisms(pattern, 0))), then counted up to limit*|Aut|
// mappings.
func refCountInducedUpTo(g *Graph, adj *AdjBits, pattern *Dense, aut, limit int, maxSteps int64) (count int, exact bool) {
	mappings, exact := refCountMappings(g, adj, pattern, int64(limit)*int64(aut), maxSteps)
	return int(mappings / int64(aut)), exact
}

// refCountMappings counts injective induced-isomorphism mappings of pattern
// into g, stopping at mapLimit (<= 0: exhaustive) or after maxSteps
// extensions. adj, when non-nil, must be NewAdjBits(g).
func refCountMappings(g *Graph, adj *AdjBits, pattern *Dense, mapLimit int64, maxSteps int64) (int64, bool) {
	k := pattern.n
	if k == 0 {
		return 0, true
	}
	// Order pattern vertices so each (after the first) attaches to a prior
	// one; assumes pattern is connected (motifs are).
	order, prior := refConnectedOrder(pattern)
	pdeg := make([]int, k)
	for i := 0; i < k; i++ {
		pdeg[i] = pattern.Degree(i)
	}
	// Precompute, per position, which earlier positions must be adjacent /
	// non-adjacent in the graph (induced matching).
	adjPrev := make([][]int, k)  // positions p < pos with a pattern edge
	nadjPrev := make([][]int, k) // positions p < pos without one
	for pos := 0; pos < k; pos++ {
		u := order[pos]
		for p := 0; p < pos; p++ {
			if pattern.HasEdge(u, order[p]) {
				adjPrev[pos] = append(adjPrev[pos], p)
			} else {
				nadjPrev[pos] = append(nadjPrev[pos], p)
			}
		}
	}
	hasEdge := g.HasEdge
	if adj != nil {
		hasEdge = adj.Has
	}
	mapped := make([]int, k) // position -> graph vertex
	usedG := make([]bool, g.N())
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
			if usedG[gv] || g.Degree(gv) < pdeg[u] {
				return
			}
			steps++
			if maxSteps > 0 && steps > maxSteps {
				exhausted = true
				return
			}
			for _, p := range adjPrev[pos] {
				if !hasEdge(gv, mapped[p]) {
					return
				}
			}
			for _, p := range nadjPrev[pos] {
				if hasEdge(gv, mapped[p]) {
					return
				}
			}
			mapped[pos] = gv
			usedG[gv] = true
			rec(pos + 1)
			usedG[gv] = false
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
		for _, gv := range g.Neighbors(anchor) {
			if exhausted || (mapLimit > 0 && cnt >= mapLimit) {
				return
			}
			try(int(gv))
		}
	}
	rec(0)
	if mapLimit > 0 && cnt >= mapLimit {
		return cnt, true // reached the requested limit; exact up to the cap
	}
	return cnt, !exhausted
}

// refConnectedOrder returns an order of pattern vertices such that every vertex
// after the first is adjacent to an earlier one, plus for each position the
// index (into order) of one earlier neighbor.
func refConnectedOrder(pattern *Dense) (order []int, prior []int) {
	k := pattern.n
	order = make([]int, 0, k)
	prior = make([]int, k)
	inOrder := make([]int, k) // vertex -> position+1, 0 = absent
	// Start from the max-degree vertex for better pruning.
	start := 0
	for v := 1; v < k; v++ {
		if pattern.Degree(v) > pattern.Degree(start) {
			start = v
		}
	}
	order = append(order, start)
	inOrder[start] = 1
	for len(order) < k {
		bestV, bestAnchor, bestDeg := -1, -1, -1
		for v := 0; v < k; v++ {
			if inOrder[v] != 0 {
				continue
			}
			for pos, w := range order {
				if pattern.HasEdge(v, w) {
					if pattern.Degree(v) > bestDeg {
						bestV, bestAnchor, bestDeg = v, pos, pattern.Degree(v)
					}
					break
				}
			}
		}
		if bestV < 0 { // disconnected pattern: append arbitrary remaining
			for v := 0; v < k; v++ {
				if inOrder[v] == 0 {
					bestV, bestAnchor = v, 0
					break
				}
			}
		}
		prior[len(order)] = bestAnchor
		order = append(order, bestV)
		inOrder[bestV] = len(order)
	}
	return order, prior
}
