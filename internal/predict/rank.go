package predict

import "sort"

// Ranked is one (function, score) prediction from a scorer.
type Ranked struct {
	Function int
	Score    float64
}

// rankedBefore is the ranking's strict total order: descending score, ties
// broken toward the smaller function index. Written as two inequalities so
// tie detection never compares computed floats with ==.
func rankedBefore(a, b Ranked) bool {
	if a.Score > b.Score {
		return true
	}
	if a.Score < b.Score {
		return false
	}
	return a.Function < b.Function
}

// TopK ranks a scorer's output vector: functions sorted by descending
// score, ties broken toward the smaller function index, truncated to the k
// best (k <= 0 means no truncation). Zero- and negative-score functions are
// dropped — a scorer that found no evidence predicts nothing. The ordering
// is a pure function of the score vector, so every consumer (the serving
// daemon, lamoctl, lamod query) renders identical rankings.
//
// When k is small relative to the vector, selection runs through a bounded
// min-heap instead of a full sort; rankedBefore is a strict total order
// (function indices are unique), so both paths return identical slices,
// ties included.
func TopK(scores []float64, k int) []Ranked {
	if k > 0 && k <= len(scores)/8 {
		return topKHeap(scores, k)
	}
	return topKSort(scores, k)
}

// topKSort is the full-sort path: collect every positive score, sort, trim.
func topKSort(scores []float64, k int) []Ranked {
	ranked := make([]Ranked, 0, len(scores))
	for f, s := range scores {
		if s > 0 {
			ranked = append(ranked, Ranked{Function: f, Score: s})
		}
	}
	sort.Slice(ranked, func(i, j int) bool { return rankedBefore(ranked[i], ranked[j]) })
	if k > 0 && len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked
}

// topKHeap is the partial-selection path for 0 < k << len(scores): a
// k-bounded heap whose root is the worst entry kept so far, O(n log k)
// time and one k-sized allocation instead of collecting and sorting every
// positive score.
func topKHeap(scores []float64, k int) []Ranked {
	h := make([]Ranked, 0, k)
	for f, s := range scores {
		if s <= 0 {
			continue
		}
		x := Ranked{Function: f, Score: s}
		if len(h) < k {
			h = append(h, x)
			siftUp(h, len(h)-1)
		} else if rankedBefore(x, h[0]) {
			h[0] = x
			siftDown(h, 0)
		}
	}
	// Heapsort: repeatedly move the worst kept entry to the tail. The root
	// is the maximum in "ranked-after" order, so the array ends up best
	// first — exactly the ranking order.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(h[:n], 0)
	}
	return h
}

// siftUp restores the heap property (every parent ranks after its
// children) from leaf i upward.
func siftUp(h []Ranked, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !rankedBefore(h[parent], h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the heap property from node i downward.
func siftDown(h []Ranked, i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && rankedBefore(h[j], h[r]) {
			j = r
		}
		if !rankedBefore(h[i], h[j]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
