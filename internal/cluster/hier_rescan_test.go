package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// aggloModel is a randomized clustering problem shared by Run, heapRun and
// the brute-force reference: items carry random base similarities,
// merged clusters score by average linkage over their members, and clusters
// grow frozen once they exceed a member bound.
type aggloModel struct {
	base    [][]float64 // symmetric item-level similarities
	members map[int][]int
	next    int
	maxSize int
	merges  []int // merge log (ids), for cross-checking the sequence
}

func newAggloModel(rng *rand.Rand) *aggloModel {
	n := 4 + rng.Intn(20)
	base := make([][]float64, n)
	for i := range base {
		base[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := rng.Float64()
			// Force exact ties often, to exercise the deterministic
			// tie-breaking path: quantize to a coarse grid.
			if rng.Intn(2) == 0 {
				s = math.Round(s*4) / 4
			}
			base[i][j], base[j][i] = s, s
		}
	}
	m := &aggloModel{
		base:    base,
		members: map[int][]int{},
		next:    n,
		maxSize: 2 + rng.Intn(4),
	}
	for i := 0; i < n; i++ {
		m.members[i] = []int{i}
	}
	return m
}

func (m *aggloModel) ids() []int {
	ids := make([]int, len(m.base))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func (m *aggloModel) sim(a, b int) float64 {
	sum := 0.0
	for _, x := range m.members[a] {
		for _, y := range m.members[b] {
			sum += m.base[x][y]
		}
	}
	return sum / float64(len(m.members[a])*len(m.members[b]))
}

func (m *aggloModel) merge(a, b int) int {
	id := m.next
	m.next++
	m.members[id] = append(append([]int(nil), m.members[a]...), m.members[b]...)
	m.merges = append(m.merges, a, b, id)
	return id
}

func (m *aggloModel) canMerge(a, b int) bool {
	return len(m.members[a]) < m.maxSize && len(m.members[b]) < m.maxSize
}

func (m *aggloModel) driver() *Agglomerative {
	return &Agglomerative{
		Sim:      m.sim,
		Merge:    m.merge,
		CanMerge: m.canMerge,
	}
}

// rescanRun is the brute-force O(k^2)-per-merge reference: every round it
// rescans all live admissible pairs of m's items in ascending (a, b) id
// order and takes the first strict maximum — exactly Run's documented
// order (max similarity, ties to the smallest id pair).
func rescanRun(m *aggloModel) []int {
	ids := m.ids()
	live := map[int]bool{}
	order := append([]int(nil), ids...)
	for _, id := range ids {
		live[id] = true
	}
	for {
		cur := make([]int, 0, len(live))
		for id := range live {
			cur = append(cur, id)
		}
		sort.Ints(cur)
		bestA, bestB := -1, -1
		best := math.Inf(-1)
		for i := 0; i < len(cur); i++ {
			for j := i + 1; j < len(cur); j++ {
				if !m.canMerge(cur[i], cur[j]) {
					continue
				}
				if s := m.sim(cur[i], cur[j]); s > best {
					best, bestA, bestB = s, cur[i], cur[j]
				}
			}
		}
		if bestA < 0 {
			break
		}
		merged := m.merge(bestA, bestB)
		delete(live, bestA)
		delete(live, bestB)
		live[merged] = true
		order = append(order, merged)
	}
	out := make([]int, 0, len(live))
	for _, id := range order {
		if live[id] {
			out = append(out, id)
			live[id] = false
		}
	}
	return out
}

// TestAgglomerativeMatchesRescan drives Run and the brute-force rescan
// over identical randomized inputs and requires the exact same merge
// sequence and survivors.
func TestAgglomerativeMatchesRescan(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mRun := newAggloModel(rng)
		// Rebuild the identical model for the reference run.
		mRef := newAggloModel(rand.New(rand.NewSource(seed)))

		gotOut := mRun.driver().Run(mRun.ids())
		wantOut := rescanRun(mRef)

		if !reflect.DeepEqual(mRun.merges, mRef.merges) {
			t.Logf("seed %d: merge sequence diverged\nrun:    %v\nrescan: %v",
				seed, mRun.merges, mRef.merges)
			return false
		}
		if !reflect.DeepEqual(gotOut, wantOut) {
			t.Logf("seed %d: survivors diverged\nrun:    %v\nrescan: %v",
				seed, gotOut, wantOut)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 80,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
