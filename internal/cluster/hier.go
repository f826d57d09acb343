package cluster

import (
	"slices"
	"sync"
)

// Agglomerative performs generic bottom-up hierarchical clustering over n
// items. Sim scores two current clusters, identified by their ids;
// Merge(a, b) combines two and returns a fresh id for the merged cluster;
// CanMerge may veto a proposed merge.
//
// LaMoFinder uses this driver with occurrence-cluster ids, SO similarity,
// and the border-informative-FC stopping rule.
type Agglomerative struct {
	// Sim returns the similarity of live clusters a and b, scored in that
	// direction.
	Sim func(a, b int) float64
	// Merge fuses clusters a and b and returns the merged cluster's id,
	// which must be fresh: no input id and no id Merge returned before.
	Merge func(a, b int) int
	// CanMerge, if non-nil, vetoes merges (e.g. a stopping criterion per
	// cluster). It must be stable: its verdict for a given pair of live
	// ids may not change while both remain live.
	CanMerge func(a, b int) bool
}

// Run clusters the given live ids until no admissible pair remains, and
// returns the surviving cluster ids (frozen and merged alike) in creation
// order: input ids first, then merged ids. The input ids must be distinct.
//
// Each similarity is scored once, when the later of its two clusters
// appears: the initial rows score each id against the admissible ids after
// it, and a merge row scores the merged cluster against the live admissible
// ids in creation order. Scores live in a dense table over cluster slots.
// Every live cluster keeps its best partner, and each round takes the best
// of those by a linear scan. Pairs order by similarity, descending, then by
// the smaller id pair (smaller id ascending, then larger), so the merge
// sequence is a deterministic function of the similarity values alone. A
// merge costs one similarity row plus O(k) bookkeeping, and a rescan of
// the row of each cluster whose best partner just merged.
func (ag *Agglomerative) Run(ids []int) []int {
	t := tables.Get().(*simTable)
	defer tables.Put(t)
	t.reset(ids)

	// Initial pairwise rows: each id against the ids after it.
	for x, a := range ids {
		for y := x + 1; y < len(ids); y++ {
			t.score(ag, a, ids[y], int32(x), int32(y))
		}
	}
	for s := range ids {
		t.rescan(int32(s))
	}

	for {
		x, y := t.bestPair()
		if x < 0 {
			break
		}
		a, b := t.id[x], t.id[y]
		if a > b {
			a, b = b, a
		}
		merged := ag.Merge(a, b)
		t.merge(x, y, merged)

		// The merged cluster's row: the live ids created before it, in
		// creation order.
		for i, id := range t.order[:len(t.order)-1] {
			if z := t.slot[i]; z >= 0 {
				t.score(ag, merged, id, x, z)
			}
		}
		t.refresh(x)
	}

	out := make([]int, 0, len(ids))
	for i, id := range t.order {
		if t.slot[i] >= 0 {
			out = append(out, id)
		}
	}
	return out
}

// tables recycles simTables across Run calls: the table is Run's one
// large buffer, sized to the largest input seen.
var tables = sync.Pool{New: func() any { return new(simTable) }}

// simTable is the state of one Run over k input clusters. A live cluster
// holds one of k slots; a merged cluster takes over the first slot of the
// pair it replaces. sim and adm are k×k and symmetric: entry (x, y) holds
// the similarity of the clusters in slots x and y as scored (in whichever
// direction the row ran) and whether the pair is admissible.
type simTable struct {
	k    int
	sim  []float64
	adm  []bool
	id   []int   // slot -> cluster id
	born []int32 // slot -> creation index of its cluster
	best []int32 // slot -> slot of its best partner, -1 = none
	live []bool  // slot -> holds a live cluster

	// Creation order: order[i] is the id created i-th (input ids first)
	// and slot[i] the slot of its cluster, -1 once it has merged away.
	order []int
	slot  []int32
}

// reset prepares t for the input ids, each in the slot of its index.
func (t *simTable) reset(ids []int) {
	k := len(ids)
	t.k = k
	t.sim = slices.Grow(t.sim[:0], k*k)[:k*k]
	t.adm = slices.Grow(t.adm[:0], k*k)[:k*k]
	clear(t.adm)
	t.id = append(t.id[:0], ids...)
	t.best = slices.Grow(t.best[:0], k)[:k]
	t.live = slices.Grow(t.live[:0], k)[:k]
	t.order = append(t.order[:0], ids...)
	t.born, t.slot = t.born[:0], t.slot[:0]
	for i := range ids {
		t.live[i] = true
		t.born = append(t.born, int32(i))
		t.slot = append(t.slot, int32(i))
	}
}

// score stores Sim(a, b) for the clusters in slots x and y into both
// halves of the table and marks the pair admissible, unless CanMerge
// vetoes it.
func (t *simTable) score(ag *Agglomerative, a, b int, x, y int32) {
	if ag.CanMerge != nil && !ag.CanMerge(a, b) {
		return
	}
	s := ag.Sim(a, b)
	t.sim[int(x)*t.k+int(y)] = s
	t.sim[int(y)*t.k+int(x)] = s
	t.adm[int(x)*t.k+int(y)] = true
	t.adm[int(y)*t.k+int(x)] = true
}

// before reports whether the pair (x, y) orders before the pair (u, v):
// higher similarity first, ties to the smaller id pair.
//
// alloc-budget: 0
func (t *simTable) before(x, y, u, v int32) bool {
	s1, s2 := t.sim[int(x)*t.k+int(y)], t.sim[int(u)*t.k+int(v)]
	if s1 > s2 {
		return true
	}
	if s1 < s2 {
		return false
	}
	a1, b1 := t.id[x], t.id[y]
	if a1 > b1 {
		a1, b1 = b1, a1
	}
	a2, b2 := t.id[u], t.id[v]
	if a2 > b2 {
		a2, b2 = b2, a2
	}
	if a1 != a2 {
		return a1 < a2
	}
	return b1 < b2
}

// rescan recomputes the best partner of slot x over its live admissible
// pairs.
//
// alloc-budget: 0
func (t *simTable) rescan(x int32) {
	best := int32(-1)
	for y := int32(0); int(y) < t.k; y++ {
		if y == x || !t.live[y] || !t.adm[int(x)*t.k+int(y)] {
			continue
		}
		if best < 0 || t.before(x, y, x, best) {
			best = y
		}
	}
	t.best[x] = best
}

// bestPair returns the best pair over all live clusters' best partners, or
// (-1, -1) when no admissible pair remains.
//
// alloc-budget: 0
func (t *simTable) bestPair() (int32, int32) {
	bx, by := int32(-1), int32(-1)
	for x := int32(0); int(x) < t.k; x++ {
		if !t.live[x] || t.best[x] < 0 {
			continue
		}
		if bx < 0 || t.before(x, t.best[x], bx, by) {
			bx, by = x, t.best[x]
		}
	}
	return bx, by
}

// merge retires the clusters in slots x and y and records the creation of
// merged in slot x, clearing its admissible flags for the row about to be
// stored.
func (t *simTable) merge(x, y int32, merged int) {
	t.slot[t.born[x]] = -1
	t.slot[t.born[y]] = -1
	t.live[y] = false
	t.born[x] = int32(len(t.order))
	t.order = append(t.order, merged)
	t.slot = append(t.slot, x)
	t.id[x] = merged
	for z := 0; z < t.k; z++ {
		t.adm[int(x)*t.k+z] = false
		t.adm[z*t.k+int(x)] = false
	}
}

// refresh updates every best partner after slot s received a new cluster
// and its row: a cluster whose best partner merged away rescans its row,
// any other compares its pair with s against its current best.
//
// alloc-budget: 0
func (t *simTable) refresh(s int32) {
	t.rescan(s)
	for x := int32(0); int(x) < t.k; x++ {
		if x == s || !t.live[x] {
			continue
		}
		b := t.best[x]
		switch {
		case b == s || (b >= 0 && !t.live[b]):
			t.rescan(x)
		case t.adm[int(x)*t.k+int(s)] && (b < 0 || t.before(x, s, x, b)):
			t.best[x] = s
		}
	}
}
