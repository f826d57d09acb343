package query

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// This file keeps, verbatim, the bounded heap that ranked each category
// per request before categories were ranked once per view: topkColumn and
// its siftUp/siftDown. TestTopKCategoryMatchesHeap pins topkCategory over
// a precomputed ranking to it.

// topkColumn scans one category column and keeps the k best selected
// proteins by (score desc, protein asc), mirroring predict's rank order on
// the protein axis. Only positive scores rank — the same rule predict
// applies to per-protein rankings — and score predicates apply before the
// heap. The bounded heap keeps the worst survivor at the root; the final
// heapsort leaves dst best-first.
//
// alloc-budget: 0
func topkColumn(dst []pair, col []float64, live []uint64, preds []numPred, k int) []pair {
	for p, s := range col {
		if s <= 0 || live[p>>6]&(1<<(uint(p)&63)) == 0 || !passScore(s, preds) {
			continue
		}
		c := pair{p: int32(p), s: s}
		if len(dst) < k {
			dst = append(dst, c)
			siftUp(dst, len(dst)-1)
		} else if pairBefore(c, dst[0]) {
			dst[0] = c
			siftDown(dst, 0, len(dst))
		}
	}
	for m := len(dst) - 1; m > 0; m-- {
		dst[0], dst[m] = dst[m], dst[0]
		siftDown(dst, 0, m)
	}
	return dst
}

// siftUp restores the worst-at-root heap invariant after appending at i.
//
// alloc-budget: 0
func siftUp(h []pair, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !pairBefore(h[parent], h[i]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the invariant from the root over h[:m].
//
// alloc-budget: 0
func siftDown(h []pair, i, m int) {
	for {
		worst := i
		if l := 2*i + 1; l < m && pairBefore(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < m && pairBefore(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// rankColumn ranks a column's positive cells the way NewView ranks each
// category.
func rankColumn(col []float64) []int32 {
	var ranked []int32
	for p, s := range col {
		if s > 0 {
			ranked = append(ranked, int32(p))
		}
	}
	slices.SortFunc(ranked, func(a, b int32) int {
		if pairBefore(pair{a, col[a]}, pair{b, col[b]}) {
			return -1
		}
		return 1
	})
	return ranked
}

// TestTopKCategoryMatchesHeap is the property test of the group kernel:
// over random columns whose scores repeat (so ties break on protein id),
// zero and negative cells, random live sets, random score predicates and
// every plan topk from 0 to n+1, the first k live entries of the column's
// ranking are exactly what the per-request heap kept, in its order.
func TestTopKCategoryMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 21))
	ops := []uint8{opLT, opLE, opGT, opGE}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(200)
		// A few distinct levels force ties; some cells are not positive.
		levels := []float64{-0.5, 0, 0.125, 0.25, 1.0 / 3, 0.5, 2.0 / 3, 1}[:2+rng.IntN(7)]
		col := make([]float64, n)
		for p := range col {
			if rng.IntN(4) == 0 {
				col[p] = rng.Float64()
			} else {
				col[p] = levels[rng.IntN(len(levels))]
			}
		}
		live := make([]uint64, (n+63)/64)
		density := rng.IntN(5)
		for p := 0; p < n; p++ {
			if rng.IntN(4) < density {
				live[p>>6] |= 1 << (p & 63)
			}
		}
		var preds []numPred
		for i := rng.IntN(3); i > 0; i-- {
			preds = append(preds, numPred{op: ops[rng.IntN(len(ops))], val: levels[rng.IntN(len(levels))]})
		}
		ranked := rankColumn(col)
		for topk := 0; topk <= n+1; topk++ {
			// execGroup's normalization: a plan topk of 0 or above n means n.
			k := topk
			if k <= 0 || k > n {
				k = n
			}
			want := topkColumn(nil, col, live, preds, k)
			got, _ := topkCategory(nil, ranked, col, live, preds, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d topk %d: kernel kept %d proteins, heap %d", trial, topk, len(got), len(want))
			}
			for i, p := range got {
				if p != want[i].p || col[p] != want[i].s {
					t.Fatalf("trial %d topk %d rank %d: kernel protein %d (%v), heap %d (%v)",
						trial, topk, i, p, col[p], want[i].p, want[i].s)
				}
			}
		}
	}
}

// TestViewRankingsMatchHeap runs the same comparison on the MIPS fixture
// view's own category rankings, with every protein live and no predicate.
func TestViewRankingsMatchHeap(t *testing.T) {
	v := mipsView()
	live := make([]uint64, len(v.annotated))
	for i := range live {
		live[i] = ^uint64(0)
	}
	for f := 0; f < v.NumFunctions(); f++ {
		col := v.Column(f)
		want := topkColumn(nil, col, live, nil, v.NumProteins())
		got := v.byCategory[f]
		if len(got) != len(want) {
			t.Fatalf("category %d: view ranks %d proteins, heap %d", f, len(got), len(want))
		}
		for i, p := range got {
			if p != want[i].p {
				t.Fatalf("category %d rank %d: view protein %d, heap %d", f, i, p, want[i].p)
			}
		}
	}
}
