package cluster

import (
	"slices"
	"sync"
)

// Agglomerative performs generic bottom-up hierarchical clustering over n
// items. BatchSim scores one current cluster, identified by its
// representative id, against a row of others; Merge(a, b) combines two and
// returns the id representing the merged cluster (one of a, b, or a fresh
// id the caller manages); CanMerge may veto a proposed merge.
//
// LaMoFinder uses this driver with occurrence-cluster ids, SO similarity,
// and the border-informative-FC stopping rule.
type Agglomerative struct {
	// BatchSim computes the similarity of live cluster a against each id
	// in bs, writing result i to out[i]. A cluster's whole row is scored
	// at once, so callers can fan it out to a worker pool.
	BatchSim func(a int, bs []int, out []float64)
	// Merge fuses cluster b into cluster a (or returns a fresh id).
	Merge func(a, b int) int
	// CanMerge, if non-nil, vetoes merges (e.g. a stopping criterion per
	// cluster). It must be stable: its verdict for a given pair of live
	// ids may not change while both remain live.
	CanMerge func(a, b int) bool
}

// Run clusters the given live ids until no admissible pair remains, and
// returns the surviving cluster ids (frozen and merged alike) in first-seen
// order: input ids first, then merged ids in creation order. The input ids
// must be distinct.
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
	admissible := func(a, b int) bool {
		return ag.CanMerge == nil || ag.CanMerge(a, b)
	}
	t := tables.Get().(*simTable)
	defer tables.Put(t)
	t.reset(ids)

	// Initial pairwise rows: each id against the admissible ids after it.
	for i, a := range ids {
		t.bs, t.bslot = t.bs[:0], t.bslot[:0]
		for j, b := range ids[i+1:] {
			if admissible(a, b) {
				t.bs = append(t.bs, b)
				t.bslot = append(t.bslot, int32(i+1+j))
			}
		}
		t.score(ag.BatchSim, a, int32(i))
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
		s := t.merge(x, y, merged)

		// The merged cluster's row: the live admissible ids in creation
		// order (an id re-used by Merge appears once per creation).
		t.bs, t.bslot = t.bs[:0], t.bslot[:0]
		for i, id := range t.order {
			cur := t.cur[t.first[i]]
			if id != merged && cur >= 0 && admissible(merged, id) {
				t.bs = append(t.bs, id)
				t.bslot = append(t.bslot, cur)
			}
		}
		t.score(ag.BatchSim, merged, s)
		t.refresh(s)
	}

	out := make([]int, 0, len(ids))
	for i, id := range t.order {
		if t.first[i] == int32(i) && t.cur[i] >= 0 {
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
	best []int32 // slot -> slot of its best partner, -1 = none
	live []bool  // slot -> holds a live cluster

	// Creation order: order[i] is the id created i-th (input ids first),
	// first[i] the creation index of that id's first appearance, and
	// cur[first[i]] the slot of its live cluster, -1 when it has none.
	order []int
	first []int32
	cur   []int32

	bs    []int     // row scratch: the ids scored
	bslot []int32   // their slots
	row   []float64 // their similarities
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
	t.first, t.cur = t.first[:0], t.cur[:0]
	for i := range ids {
		t.live[i] = true
		t.first = append(t.first, int32(i))
		t.cur = append(t.cur, int32(i))
	}
}

// score runs batch for cluster a against t.bs and stores the row for slot s
// against t.bslot into both halves of the table, marking those pairs
// admissible. An empty row is not scored.
func (t *simTable) score(batch func(a int, bs []int, out []float64), a int, s int32) {
	if len(t.bs) == 0 {
		return
	}
	t.row = slices.Grow(t.row[:0], len(t.bs))[:len(t.bs)]
	batch(a, t.bs, t.row)
	for i, y := range t.bslot {
		t.sim[int(s)*t.k+int(y)] = t.row[i]
		t.sim[int(y)*t.k+int(s)] = t.row[i]
		t.adm[int(s)*t.k+int(y)] = true
		t.adm[int(y)*t.k+int(s)] = true
	}
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

// merge retires the clusters in slots x and y (and the live cluster of id
// merged, should Merge have handed back another live id), records the
// creation of merged, and returns the slot it takes: x's. Its admissible
// flags are cleared for the row about to be stored.
func (t *simTable) merge(x, y int32, merged int) int32 {
	t.retire(x)
	t.retire(y)
	f := int32(len(t.order))
	for i, id := range t.order {
		if id == merged {
			f = t.first[i]
			if c := t.cur[f]; c >= 0 {
				t.retire(c)
			}
			break
		}
	}
	t.order = append(t.order, merged)
	t.first = append(t.first, f)
	t.cur = append(t.cur, -1)
	t.cur[f] = x
	t.id[x] = merged
	t.live[x] = true
	for z := 0; z < t.k; z++ {
		t.adm[int(x)*t.k+z] = false
		t.adm[z*t.k+int(x)] = false
	}
	return x
}

// retire frees slot s: its cluster has merged away.
func (t *simTable) retire(s int32) {
	t.live[s] = false
	for i, c := range t.cur {
		if c == s {
			t.cur[i] = -1
		}
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
