package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(5)
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) = false, want true")
	}
	if g.AddEdge(1, 0) {
		t.Error("duplicate edge accepted")
	}
	if g.AddEdge(2, 2) {
		t.Error("self-loop accepted")
	}
	if g.AddEdge(0, 7) {
		t.Error("out-of-range edge accepted")
	}
	if g.M() != 1 {
		t.Errorf("M() = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge existing = false")
	}
	if g.RemoveEdge(0, 1) {
		t.Error("RemoveEdge missing = true")
	}
	if g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.M() != 1 {
		t.Errorf("graph state wrong after removal: M=%d", g.M())
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(6)
	for _, v := range []int{5, 2, 4, 1, 3} {
		g.AddEdge(0, v)
	}
	ns := g.Neighbors(0)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("neighbors not sorted: %v", ns)
		}
	}
	if g.Degree(0) != 5 {
		t.Errorf("Degree(0) = %d, want 5", g.Degree(0))
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Error("clone shares storage with original")
	}
	if c.M() != 2 || g.M() != 1 {
		t.Errorf("edge counts: clone=%d orig=%d", c.M(), g.M())
	}
}

func TestInduced(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	d := g.Induced([]int32{0, 1, 2})
	if d.M() != 3 || !d.Connected() {
		t.Errorf("induced triangle wrong: %v", d)
	}
	d2 := g.Induced([]int32{0, 3})
	if d2.M() != 0 {
		t.Errorf("induced on non-adjacent pair has %d edges", d2.M())
	}
}

func TestNames(t *testing.T) {
	g := New(2)
	if got := g.Name(1); got != "v1" {
		t.Errorf("default name = %q", got)
	}
	g.SetName(1, "YAL001C")
	if got := g.Name(1); got != "YAL001C" {
		t.Errorf("name = %q", got)
	}
	v := g.AddVertex()
	if v != 2 || g.Name(2) != "v2" {
		t.Errorf("AddVertex -> %d name %q", v, g.Name(2))
	}
}

func TestDenseBasics(t *testing.T) {
	d := NewDense(4)
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	d.AddEdge(2, 3)
	d.AddEdge(3, 0)
	if d.M() != 4 {
		t.Errorf("M = %d, want 4", d.M())
	}
	if !d.Connected() {
		t.Error("4-cycle reported disconnected")
	}
	if d.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d", d.Degree(0))
	}
}

func TestDenseDisconnected(t *testing.T) {
	d := NewDense(4)
	d.AddEdge(0, 1)
	d.AddEdge(2, 3)
	if d.Connected() {
		t.Error("two disjoint edges reported connected")
	}
}

// Permute returns the graph relabeled so that new vertex i is old vertex
// perm[i]: the tests' generator of isomorphic copies.
func (d *Dense) Permute(perm []int) *Dense {
	p := NewDense(d.n)
	for i := 0; i < d.n; i++ {
		for j := i + 1; j < d.n; j++ {
			if d.HasEdge(perm[i], perm[j]) {
				p.AddEdge(i, j)
			}
		}
	}
	return p
}

func TestDensePermute(t *testing.T) {
	d := NewDense(3)
	d.AddEdge(0, 1) // path 0-1, isolated 2
	p := d.Permute([]int{2, 1, 0})
	if !p.HasEdge(1, 2) || p.HasEdge(0, 1) {
		t.Errorf("permute wrong: %v", p)
	}
}

// CanonicalKey returns a string that is identical for isomorphic graphs and
// distinct for non-isomorphic ones, for graphs with at most canonExactMax
// vertices: the exact canonical form the Classifier keys small graphs by
// (canonRows), spelled out so the tests can compare it. It panics for
// larger graphs.
//
// invariant: d.n <= canonExactMax — exact canonical search is factorial in
// the vertex count, so a larger input is a caller bug (the miner routes
// meso-scale patterns through Classifier), never a data-dependent state.
func CanonicalKey(d *Dense) string {
	if d.n > canonExactMax {
		panic("graph: CanonicalKey limited to 8 vertices; use Classifier")
	}
	var rows [canonExactMax]uint32
	canonRows(d, &rows)
	best := NewDense(d.n)
	for i := 0; i < d.n; i++ {
		for p := 0; p < i; p++ {
			if rows[i]&(1<<uint(p)) != 0 {
				best.AddEdge(i, p)
			}
		}
	}
	return best.bitsKey()
}

// bitsKey packs the adjacency bits into a comparable string for a fixed
// vertex labeling.
func (d *Dense) bitsKey() string {
	return string(d.AppendBits(make([]byte, 0, d.n*4+1)))
}

// Isomorphic reports whether a and b are isomorphic: the canonical form up
// to canonExactMax vertices, the isomorphism search above.
func Isomorphic(a, b *Dense) bool {
	if a.n != b.n || a.M() != b.M() {
		return false
	}
	if Invariant(a) != Invariant(b) {
		return false
	}
	if a.n <= canonExactMax {
		return CanonicalKey(a) == CanonicalKey(b)
	}
	var mapping [MaxDense]int
	return IsoMappingInto(a, b, mapping[:])
}

func TestCanonicalKeyIsomorphicPaths(t *testing.T) {
	// Path 0-1-2-3 vs path relabeled arbitrarily.
	a := NewDense(4)
	a.AddEdge(0, 1)
	a.AddEdge(1, 2)
	a.AddEdge(2, 3)
	b := NewDense(4)
	b.AddEdge(2, 0)
	b.AddEdge(0, 3)
	b.AddEdge(3, 1)
	if CanonicalKey(a) != CanonicalKey(b) {
		t.Error("isomorphic paths got different canonical keys")
	}
	// Star is not isomorphic to the path.
	c := NewDense(4)
	c.AddEdge(0, 1)
	c.AddEdge(0, 2)
	c.AddEdge(0, 3)
	if CanonicalKey(a) == CanonicalKey(c) {
		t.Error("path and star share canonical key")
	}
}

func TestCanonicalKeyRandomPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(6) // 3..8
		d := NewDense(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					d.AddEdge(i, j)
				}
			}
		}
		perm := rng.Perm(n)
		p := d.Permute(perm)
		if CanonicalKey(d) != CanonicalKey(p) {
			t.Fatalf("trial %d: canonical keys differ for permuted copies of %v", trial, d)
		}
	}
}

func TestIsomorphicLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 9 + rng.Intn(10) // beyond exact-canonical range
		d := NewDense(n)
		// random connected-ish graph
		for i := 1; i < n; i++ {
			d.AddEdge(i, rng.Intn(i))
		}
		for e := 0; e < n; e++ {
			d.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		p := d.Permute(rng.Perm(n))
		if !Isomorphic(d, p) {
			t.Fatalf("trial %d: permuted copy not isomorphic", trial)
		}
	}
}

func TestNotIsomorphic(t *testing.T) {
	a := NewDense(5) // 5-cycle
	for i := 0; i < 5; i++ {
		a.AddEdge(i, (i+1)%5)
	}
	b := NewDense(5) // path + chord elsewhere, same edge count
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(0, 2)
	if Isomorphic(a, b) {
		t.Error("cycle and tadpole reported isomorphic")
	}
}

func TestClassifier(t *testing.T) {
	cl := NewClassifier()
	tri := NewDense(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(2, 0)
	path := NewDense(3)
	path.AddEdge(0, 1)
	path.AddEdge(1, 2)
	id1 := cl.Classify(tri)
	id2 := cl.Classify(path)
	if id1 == id2 {
		t.Fatal("triangle and path classified together")
	}
	// Relabeled triangle maps to the same class.
	tri2 := NewDense(3)
	tri2.AddEdge(2, 1)
	tri2.AddEdge(1, 0)
	tri2.AddEdge(0, 2)
	if cl.Classify(tri2) != id1 {
		t.Error("relabeled triangle got a new class")
	}
	if cl.NumClasses() != 2 {
		t.Errorf("NumClasses = %d, want 2", cl.NumClasses())
	}
	if cl.Rep(id1).M() != 3 {
		t.Errorf("representative wrong: %v", cl.Rep(id1))
	}
}

func TestClassifierMesoScale(t *testing.T) {
	cl := NewClassifier()
	rng := rand.New(rand.NewSource(3))
	n := 12
	d := NewDense(n)
	for i := 1; i < n; i++ {
		d.AddEdge(i, rng.Intn(i))
	}
	id := cl.Classify(d)
	for trial := 0; trial < 20; trial++ {
		p := d.Permute(rng.Perm(n))
		if cl.Classify(p) != id {
			t.Fatalf("trial %d: permuted meso-scale pattern reclassified", trial)
		}
	}
}

func TestAutomorphismsCycle(t *testing.T) {
	// 4-cycle has dihedral group of order 8.
	d := NewDense(4)
	for i := 0; i < 4; i++ {
		d.AddEdge(i, (i+1)%4)
	}
	auts := Automorphisms(d, 0)
	if len(auts) != 8 {
		t.Errorf("|Aut(C4)| = %d, want 8", len(auts))
	}
}

func TestOrbitsCycleWithPendant(t *testing.T) {
	// Triangle 0-1-2 with pendant 3 attached to 0: orbits {0}, {1,2}, {3}.
	d := NewDense(4)
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	d.AddEdge(2, 0)
	d.AddEdge(0, 3)
	orbits := Orbits(d)
	if len(orbits) != 3 {
		t.Fatalf("orbits = %v, want 3 sets", orbits)
	}
	// The 2-element orbit must be {1,2}.
	found := false
	for _, o := range orbits {
		if len(o) == 2 && o[0] == 1 && o[1] == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("orbit {1,2} missing: %v", orbits)
	}
}

func TestOrbitsFourCycle(t *testing.T) {
	// The paper's motif g (Figure 2) is the 4-cycle with symmetry sets
	// {v1,v3} and {v2,v4}; as one orbit structure, C4's vertex orbit is all 4
	// vertices. With the paper's labeling the relevant sets are the two
	// antipodal pairs; our Orbits returns the full automorphism orbit.
	d := NewDense(4)
	for i := 0; i < 4; i++ {
		d.AddEdge(i, (i+1)%4)
	}
	orbits := Orbits(d)
	if len(orbits) != 1 || len(orbits[0]) != 4 {
		t.Errorf("C4 orbits = %v, want one orbit of size 4", orbits)
	}
}

func TestCountInducedTriangles(t *testing.T) {
	// K4 contains 4 triangles as induced subgraphs... but in K4 every
	// 3-subset induces a triangle, so 4.
	g := New(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j)
		}
	}
	tri := NewDense(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(2, 0)
	n, exact := NewMatcher(g).CountInducedUpTo(NewMatchPlan(tri), 0, 0)
	if !exact || n != 4 {
		t.Errorf("triangles in K4 = %d (exact=%v), want 4", n, exact)
	}
	// Path of 3 is NOT induced anywhere in K4.
	path := NewDense(3)
	path.AddEdge(0, 1)
	path.AddEdge(1, 2)
	n, _ = NewMatcher(g).CountInducedUpTo(NewMatchPlan(path), 0, 0)
	if n != 0 {
		t.Errorf("induced P3 in K4 = %d, want 0", n)
	}
}

func TestCountInducedLimit(t *testing.T) {
	// Large cycle: count 2-paths with a small limit; should stop early.
	g := New(100)
	for i := 0; i < 100; i++ {
		g.AddEdge(i, (i+1)%100)
	}
	path := NewDense(3)
	path.AddEdge(0, 1)
	path.AddEdge(1, 2)
	mt, plan := NewMatcher(g), NewMatchPlan(path)
	n, _ := mt.CountInducedUpTo(plan, 5, 0)
	if n < 5 {
		t.Errorf("count with limit = %d, want >= 5", n)
	}
	full, exact := mt.CountInducedUpTo(plan, 0, 0)
	if !exact || full != 100 {
		t.Errorf("P3 count in C100 = %d (exact=%v), want 100", full, exact)
	}
}

func TestCountInducedStepBudget(t *testing.T) {
	g := New(60)
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			g.AddEdge(i, j)
		}
	}
	tri := NewDense(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(2, 0)
	_, exact := NewMatcher(g).CountInducedUpTo(NewMatchPlan(tri), 0, 100)
	if exact {
		t.Error("tiny step budget reported exact on K60")
	}
}

func TestInvariantMatchesIsomorphism(t *testing.T) {
	// Property: permuting never changes the invariant.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		d := NewDense(n)
		for i := 1; i < n; i++ {
			d.AddEdge(i, rng.Intn(i))
		}
		for e := 0; e < n/2; e++ {
			d.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		p := d.Permute(rng.Perm(n))
		return Invariant(d) == Invariant(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEdgesList(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(1, 3)
	es := g.Edges(nil)
	if len(es) != 3 {
		t.Fatalf("Edges returned %d, want 3", len(es))
	}
	for _, e := range es {
		if e[0] >= e[1] {
			t.Errorf("edge %v not ordered", e)
		}
	}
}

func TestDenseString(t *testing.T) {
	d := NewDense(3)
	d.AddEdge(0, 1)
	if got := d.String(); got != "3:[0-1]" {
		t.Errorf("String() = %q", got)
	}
}

func TestNewDensePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDense(33) did not panic")
		}
	}()
	NewDense(MaxDense + 1)
}

func TestIsoMappingWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(8)
		a := NewDense(n)
		for v := 1; v < n; v++ {
			a.AddEdge(v, rng.Intn(v))
		}
		a.AddEdge(rng.Intn(n), rng.Intn(n))
		b := a.Permute(rng.Perm(n))
		m := IsoMapping(a, b)
		if m == nil {
			t.Fatalf("trial %d: no mapping for permuted copy", trial)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if a.HasEdge(i, j) != b.HasEdge(m[i], m[j]) {
					t.Fatalf("trial %d: mapping not an isomorphism", trial)
				}
			}
		}
	}
	// Non-isomorphic graphs get nil.
	tri := NewDense(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(2, 0)
	path := NewDense(3)
	path.AddEdge(0, 1)
	path.AddEdge(1, 2)
	if IsoMapping(tri, path) != nil {
		t.Error("mapping between non-isomorphic graphs")
	}
}

func TestIsomorphicViaInvariantPath(t *testing.T) {
	// Graphs above canonExactMax route through the isomorphism search
	// (IsoMappingInto); ensure mismatched edge counts short-circuit first.
	a := NewDense(12)
	b := NewDense(12)
	for v := 1; v < 12; v++ {
		a.AddEdge(v, v-1)
		b.AddEdge(v, v-1)
	}
	b.AddEdge(0, 5)
	if Isomorphic(a, b) {
		t.Error("different edge counts isomorphic")
	}
}
