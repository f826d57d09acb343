package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// MaxAssignment solves the maximum-score assignment problem for the square
// score matrix s (s[i][j] = score of pairing row i with column j) and
// returns the column assigned to each row plus the total score: the
// slice-of-rows front the tests drive MaxAssignmentInto through.
func MaxAssignment(s [][]float64) (assign []int, total float64) {
	n := len(s)
	if n == 0 {
		return nil, 0
	}
	flat := make([]float64, 0, n*n)
	for _, row := range s {
		flat = append(flat, row[:n]...)
	}
	assign = make([]int, n)
	return assign, MaxAssignmentInto(flat, n, assign, NewAssignScratch(n))
}

func TestMaxAssignmentSimple(t *testing.T) {
	s := [][]float64{
		{1, 5},
		{5, 1},
	}
	assign, total := MaxAssignment(s)
	if total != 10 {
		t.Fatalf("total = %v, want 10", total)
	}
	if assign[0] != 1 || assign[1] != 0 {
		t.Errorf("assign = %v", assign)
	}
}

func TestMaxAssignmentIdentityBest(t *testing.T) {
	s := [][]float64{
		{9, 1, 1},
		{1, 9, 1},
		{1, 1, 9},
	}
	assign, total := MaxAssignment(s)
	if total != 27 {
		t.Fatalf("total = %v", total)
	}
	for i, a := range assign {
		if a != i {
			t.Errorf("assign[%d] = %d", i, a)
		}
	}
}

func TestMaxAssignmentEmpty(t *testing.T) {
	assign, total := MaxAssignment(nil)
	if assign != nil || total != 0 {
		t.Errorf("empty: %v %v", assign, total)
	}
}

func TestMaxAssignmentMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		s := make([][]float64, n)
		for i := range s {
			s[i] = make([]float64, n)
			for j := range s[i] {
				s[i][j] = rng.Float64()
			}
		}
		_, got := MaxAssignment(s)
		want := bruteForceMax(s)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func bruteForceMax(s [][]float64) float64 {
	n := len(s)
	perm := make([]int, n)
	used := make([]bool, n)
	best := math.Inf(-1)
	var rec func(i int, sum float64)
	rec = func(i int, sum float64) {
		if i == n {
			if sum > best {
				best = sum
			}
			return
		}
		for j := 0; j < n; j++ {
			if !used[j] {
				used[j] = true
				perm[i] = j
				rec(i+1, sum+s[i][j])
				used[j] = false
			}
		}
	}
	rec(0, 0)
	return best
}

func TestAgglomerativeDriver(t *testing.T) {
	// Clusters are sets of ints; merging unions them. ids index into store.
	store := map[int][]int{0: {0}, 1: {1}, 2: {2}, 3: {10}}
	sim := func(a, b int) float64 {
		// similarity = -min gap between members
		best := math.Inf(-1)
		for _, x := range store[a] {
			for _, y := range store[b] {
				if s := -math.Abs(float64(x - y)); s > best {
					best = s
				}
			}
		}
		return best
	}
	ag := &Agglomerative{
		Sim: sim,
		Merge: func(a, b int) int {
			store[a] = append(store[a], store[b]...)
			delete(store, b)
			return a
		},
		MinSim: -5,
	}
	out := ag.Run([]int{0, 1, 2, 3})
	if len(out) != 2 {
		t.Fatalf("clusters = %v (store %v), want 2", out, store)
	}
	// {0,1,2} merged; {10} frozen by MinSim.
	sizes := map[int]bool{}
	for _, id := range out {
		sizes[len(store[id])] = true
	}
	if !sizes[3] || !sizes[1] {
		t.Errorf("cluster sizes wrong: %v", store)
	}
}

func TestAgglomerativeVeto(t *testing.T) {
	ag := &Agglomerative{
		Sim:      func(a, b int) float64 { return 1 },
		Merge:    func(a, b int) int { return a },
		CanMerge: func(a, b int) bool { return false },
		MinSim:   0,
	}
	out := ag.Run([]int{1, 2, 3})
	if len(out) != 3 {
		t.Errorf("veto ignored: %v", out)
	}
}

func TestNeighborJoiningQuartet(t *testing.T) {
	// Additive tree: ((0,1),(2,3)) with internal edge 4.
	// d(0,1)=2, d(2,3)=2, cross = 1+4+1 = 6.
	d := [][]float64{
		{0, 2, 6, 6},
		{2, 0, 6, 6},
		{6, 6, 0, 2},
		{6, 6, 2, 0},
	}
	tr := NeighborJoining(d)
	if tr.NumLeaves != 4 {
		t.Fatalf("leaves = %d", tr.NumLeaves)
	}
	// The split {0,1} | {2,3} must exist: some internal node covers exactly
	// {0,1} or exactly {2,3}. (Rooting makes the other pair's siblinghood
	// arbitrary.)
	foundSplit := false
	for v := tr.NumLeaves; v < tr.NumNodes(); v++ {
		ls := tr.LeavesBelow(v)
		if len(ls) != 2 {
			continue
		}
		a, b := ls[0], ls[1]
		if a > b {
			a, b = b, a
		}
		if (a == 0 && b == 1) || (a == 2 && b == 3) {
			foundSplit = true
		}
	}
	if !foundSplit {
		t.Error("quartet split {0,1}|{2,3} not recovered")
	}
	leaves := tr.LeavesBelow(tr.Root)
	if len(leaves) != 4 {
		t.Errorf("root covers %d leaves", len(leaves))
	}
}

// LeavesBelow returns the leaf ids in the subtree rooted at node, for the
// neighbor-joining tests.
func (t *Tree) LeavesBelow(node int) []int {
	var out []int
	var walk func(v int)
	walk = func(v int) {
		if v < t.NumLeaves {
			out = append(out, v)
			return
		}
		for _, c := range t.Children[v] {
			walk(c)
		}
	}
	walk(node)
	return out
}

func TestNeighborJoiningTrivial(t *testing.T) {
	if tr := NeighborJoining(nil); tr.NumLeaves != 0 {
		t.Error("empty matrix")
	}
	tr := NeighborJoining([][]float64{{0}})
	if tr.NumLeaves != 1 || tr.Root != 0 {
		t.Errorf("singleton tree wrong: %+v", tr)
	}
	tr = NeighborJoining([][]float64{{0, 3}, {3, 0}})
	if tr.NumNodes() != 3 || len(tr.LeavesBelow(tr.Root)) != 2 {
		t.Errorf("pair tree wrong: %+v", tr)
	}
}

func TestNeighborJoiningAllLeavesReachable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rng.Float64() + 0.1
				d[i][j], d[j][i] = v, v
			}
		}
		tr := NeighborJoining(d)
		leaves := tr.LeavesBelow(tr.Root)
		if len(leaves) != n {
			return false
		}
		seen := make([]bool, n)
		for _, l := range leaves {
			if l < 0 || l >= n || seen[l] {
				return false
			}
			seen[l] = true
		}
		// Every non-root node has a parent; lengths non-negative.
		for v := 0; v < tr.NumNodes(); v++ {
			if v != tr.Root && tr.Parent[v] < 0 {
				return false
			}
			if tr.Length[v] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
