package cluster

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// This file keeps the lazy-heap agglomeration loop verbatim as the oracle
// for Run: the table-based Run must make the same merges, return the same
// survivors and score the same (a, bs) rows through BatchSim, in the same
// order and direction.

// mergeCand is one candidate merge in the lazy max-heap. va and vb snapshot
// the version of each cluster when the candidate was scored; a candidate
// whose clusters have since merged (version bumped) is stale and is skipped
// when popped.
type mergeCand struct {
	sim    float64
	a, b   int // cluster ids, a < b
	va, vb uint32
}

// candHeap orders candidates by similarity (descending), breaking ties by
// the smaller id pair (a ascending, then b ascending) so the merge sequence
// is a deterministic function of the similarity structure alone.
type candHeap []mergeCand

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].sim > h[j].sim {
		return true
	}
	if h[i].sim < h[j].sim {
		return false
	}
	if h[i].a != h[j].a {
		return h[i].a < h[j].a
	}
	return h[i].b < h[j].b
}
func (h candHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(mergeCand)) }
func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// heapRun clusters the given live ids until no admissible pair remains, and
// returns the surviving cluster ids (frozen and merged alike) in first-seen
// order: input ids first, then merged ids in creation order.
//
// The driver keeps a max-heap of candidate merges with lazy invalidation:
// each cluster id carries a version, candidates snapshot the versions of
// their two clusters, and a popped candidate is discarded when either
// version is out of date. A merge therefore costs one row of similarity
// computations (the merged cluster against the survivors) plus O(log h)
// heap maintenance, instead of the full O(k^2) rescan of the naive loop.
// Ties are broken by the smaller id pair, so the result is a deterministic
// function of the similarity values regardless of how rows are computed.
func heapRun(ag *Agglomerative, ids []int) []int {
	batch := ag.BatchSim
	if batch == nil {
		batch = func(a int, bs []int, out []float64) {
			for i, b := range bs {
				out[i] = ag.Sim(a, b)
			}
		}
	}
	admissible := func(a, b int) bool {
		return ag.CanMerge == nil || ag.CanMerge(a, b)
	}

	ver := make(map[int]uint32, len(ids))
	order := make([]int, 0, len(ids))
	for _, id := range ids {
		ver[id] = 0
		order = append(order, id)
	}

	h := &candHeap{}
	// pushRow scores cluster a against every live peer in bs and pushes the
	// admissible candidates. Rows are scored through batch so callers can
	// parallelize them; results land in index-addressed slots, keeping the
	// candidate set independent of the evaluation schedule.
	pushRow := func(a int, bs []int) {
		if len(bs) == 0 {
			return
		}
		sims := make([]float64, len(bs))
		batch(a, bs, sims)
		for i, b := range bs {
			x, y := a, b
			if x > y {
				x, y = y, x
			}
			heap.Push(h, mergeCand{sim: sims[i], a: x, b: y, va: ver[x], vb: ver[y]})
		}
	}

	// Initial pairwise rows: each id against the admissible ids after it.
	for i, a := range ids {
		var bs []int
		for _, b := range ids[i+1:] {
			if admissible(a, b) {
				bs = append(bs, b)
			}
		}
		pushRow(a, bs)
	}

	nextVer := uint32(1)
	for h.Len() > 0 {
		c := heap.Pop(h).(mergeCand)
		va, aLive := ver[c.a]
		vb, bLive := ver[c.b]
		if !aLive || !bLive || va != c.va || vb != c.vb {
			continue // stale: one side has merged since this was scored
		}
		if c.sim < ag.MinSim {
			break // max-heap: nothing better remains
		}
		merged := ag.Merge(c.a, c.b)
		delete(ver, c.a)
		delete(ver, c.b)
		ver[merged] = nextVer // reused ids get a fresh version, stale entries die
		nextVer++
		order = append(order, merged)

		var bs []int
		for _, b := range order {
			if _, live := ver[b]; live && b != merged && admissible(merged, b) {
				bs = append(bs, b)
			}
		}
		pushRow(merged, bs)
	}

	out := make([]int, 0, len(ver))
	seen := make(map[int]bool, len(ver))
	for _, id := range order {
		if _, live := ver[id]; live && !seen[id] {
			out = append(out, id)
			seen[id] = true
		}
	}
	return out
}

// asymSim is the model's average linkage plus a small quantized term that
// depends on the direction of the call, so sim(a, b) and sim(b, a) often
// differ while exact ties stay common. A Run that scores a row from the
// other side than the reference picks different values.
func (m *aggloModel) asymSim(a, b int) float64 {
	return m.sim(a, b) + float64((a*31+b*17)%3)*0.125
}

// mergeInto fuses b into a and hands back a's id, the re-used-id form of
// Merge.
func (m *aggloModel) mergeInto(a, b int) int {
	m.members[a] = append(m.members[a], m.members[b]...)
	delete(m.members, b)
	m.merges = append(m.merges, a, b, a)
	return a
}

// aggloTrace is what one clustering run exposes: the merge log, the
// survivors and every BatchSim call as "a [bs...]".
type aggloTrace struct {
	merges, survivors []int
	rows              []string
}

// traceRun builds seed's model with the asymmetric similarity and runs it
// through drive, with fresh or re-used merge ids.
func traceRun(seed int64, reuse bool, drive func(*Agglomerative, []int) []int) aggloTrace {
	m := newAggloModel(rand.New(rand.NewSource(seed)))
	var tr aggloTrace
	ag := m.driver()
	ag.Sim = m.asymSim
	ag.BatchSim = func(a int, bs []int, out []float64) {
		tr.rows = append(tr.rows, fmt.Sprint(a, bs))
		for i, b := range bs {
			out[i] = m.asymSim(a, b)
		}
	}
	if reuse {
		ag.Merge = m.mergeInto
	}
	tr.survivors = drive(ag, m.ids())
	tr.merges = m.merges
	return tr
}

// TestAgglomerativeMatchesHeapReference runs Run and the verbatim heapRun
// over the same randomized models with an asymmetric similarity and forced
// ties, with fresh and with re-used merge ids, and requires the same merge
// log, the same survivors, and the same (a, bs) sequence through BatchSim.
func TestAgglomerativeMatchesHeapReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		for _, reuse := range []bool{false, true} {
			got := traceRun(seed, reuse, (*Agglomerative).Run)
			want := traceRun(seed, reuse, heapRun)
			if !reflect.DeepEqual(got.merges, want.merges) {
				t.Fatalf("seed %d reuse=%v: merges %v, want %v", seed, reuse, got.merges, want.merges)
			}
			if !reflect.DeepEqual(got.survivors, want.survivors) {
				t.Fatalf("seed %d reuse=%v: survivors %v, want %v", seed, reuse, got.survivors, want.survivors)
			}
			if !reflect.DeepEqual(got.rows, want.rows) {
				t.Fatalf("seed %d reuse=%v: BatchSim rows\n%v\nwant\n%v", seed, reuse, got.rows, want.rows)
			}
		}
	}
}
