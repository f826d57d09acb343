package dimotif

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lamofinder/internal/label"
	"lamofinder/internal/motif"
	"lamofinder/internal/ontology"
)

// feedForwardLoop returns the canonical FFL: 0->1, 0->2, 1->2.
func feedForwardLoop() *DiDense {
	d := NewDiDense(3)
	d.AddArc(0, 1)
	d.AddArc(0, 2)
	d.AddArc(1, 2)
	return d
}

// threeCycle returns the directed 3-cycle 0->1->2->0.
func threeCycle() *DiDense {
	d := NewDiDense(3)
	d.AddArc(0, 1)
	d.AddArc(1, 2)
	d.AddArc(2, 0)
	return d
}

func TestDiDenseBasics(t *testing.T) {
	d := feedForwardLoop()
	if d.M() != 3 {
		t.Errorf("M = %d", d.M())
	}
	if !d.HasArc(0, 1) || d.HasArc(1, 0) {
		t.Error("arc direction wrong")
	}
	if d.OutDegree(0) != 2 || d.InDegree(2) != 2 {
		t.Errorf("degrees: out(0)=%d in(2)=%d", d.OutDegree(0), d.InDegree(2))
	}
	if !d.WeaklyConnected() {
		t.Error("FFL should be weakly connected")
	}
	if got := d.String(); got != "3:[0>1 0>2 1>2]" {
		t.Errorf("String = %q", got)
	}
	u := d.Underlying()
	if u.M() != 3 {
		t.Errorf("underlying edges = %d", u.M())
	}
}

func TestDirectedIsomorphismDistinguishesOrientation(t *testing.T) {
	// FFL and 3-cycle share the same underlying triangle but are not
	// isomorphic as directed graphs.
	if Isomorphic(feedForwardLoop(), threeCycle()) {
		t.Fatal("FFL and C3 reported isomorphic")
	}
	// Relabelings of the FFL are isomorphic.
	p := feedForwardLoop().Permute([]int{2, 0, 1})
	if !Isomorphic(feedForwardLoop(), p) {
		t.Fatal("permuted FFL not isomorphic")
	}
}

func TestDirectedIsomorphismRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		d := NewDiDense(n)
		for v := 1; v < n; v++ {
			if rng.Intn(2) == 0 {
				d.AddArc(v, rng.Intn(v))
			} else {
				d.AddArc(rng.Intn(v), v)
			}
		}
		for e := 0; e < n; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				d.AddArc(a, b)
			}
		}
		p := d.Permute(rng.Perm(n))
		return Isomorphic(d, p) && Invariant(d) == Invariant(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestDirectedAutomorphisms(t *testing.T) {
	// C3 has the cyclic group of order 3 (no reflections: direction breaks
	// them).
	if got := len(Automorphisms(threeCycle(), 0)); got != 3 {
		t.Errorf("|Aut(directed C3)| = %d, want 3", got)
	}
	// FFL is rigid (regulator, intermediate, target all distinguishable).
	if got := len(Automorphisms(feedForwardLoop(), 0)); got != 1 {
		t.Errorf("|Aut(FFL)| = %d, want 1", got)
	}
	// Orbits: C3 one orbit, FFL three singletons.
	if got := Orbits(threeCycle()); len(got) != 1 || len(got[0]) != 3 {
		t.Errorf("C3 orbits = %v", got)
	}
	if got := Orbits(feedForwardLoop()); len(got) != 3 {
		t.Errorf("FFL orbits = %v", got)
	}
}

func TestClassifierDirected(t *testing.T) {
	cl := NewClassifier()
	a := cl.Classify(feedForwardLoop())
	b := cl.Classify(threeCycle())
	if a == b {
		t.Fatal("FFL and C3 classified together")
	}
	if cl.Classify(feedForwardLoop().Permute([]int{1, 2, 0})) != a {
		t.Error("relabeled FFL got a new class")
	}
	if cl.NumClasses() != 2 {
		t.Errorf("classes = %d", cl.NumClasses())
	}
}

func TestDiGraphBasics(t *testing.T) {
	g := NewDiGraph(4)
	if !g.AddArc(0, 1) || g.AddArc(0, 1) || g.AddArc(2, 2) {
		t.Error("AddArc semantics wrong")
	}
	g.AddArc(1, 0) // mutual
	g.AddArc(1, 2)
	if g.M() != 3 {
		t.Errorf("M = %d", g.M())
	}
	if !g.HasArc(0, 1) || !g.HasArc(1, 0) || g.HasArc(2, 1) {
		t.Error("HasArc wrong")
	}
	if g.OutDegree(1) != 2 || g.InDegree(0) != 1 {
		t.Errorf("degrees wrong")
	}
	var weak []int32
	g.weakNeighbors(1, func(w int32) { weak = append(weak, w) })
	if len(weak) != 2 { // 0 (mutual) and 2
		t.Errorf("weak neighbors of 1 = %v", weak)
	}
	if !g.RemoveArc(1, 2) || g.RemoveArc(1, 2) {
		t.Error("RemoveArc semantics wrong")
	}
}

func TestInducedDi(t *testing.T) {
	g := NewDiGraph(5)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(2, 0)
	d := g.InducedDi([]int32{0, 1, 2})
	if !Isomorphic(d, threeCycle()) {
		t.Errorf("induced subgraph = %v", d)
	}
}

func TestRandomizePreservesDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewDiGraph(100)
	for i := 0; i < 300; i++ {
		g.AddArc(rng.Intn(100), rng.Intn(100))
	}
	r := g.Randomize(0, rng)
	if r.M() != g.M() {
		t.Fatalf("arc count changed: %d -> %d", g.M(), r.M())
	}
	for v := 0; v < 100; v++ {
		if g.OutDegree(v) != r.OutDegree(v) || g.InDegree(v) != r.InDegree(v) {
			t.Fatalf("degrees of %d changed", v)
		}
	}
}

// plantFFLNetwork builds a directed network with planted FFLs.
func plantFFLNetwork(n, ffls int, rng *rand.Rand) *DiGraph {
	g := NewDiGraph(n)
	// background chain
	for i := 0; i+1 < n; i++ {
		g.AddArc(i, i+1)
	}
	for c := 0; c < ffls; c++ {
		base := (3 * c) % (n - 3)
		g.AddArc(base, base+2) // chain already has base->base+1->base+2
	}
	return g
}

func TestFindDirectedFFL(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := plantFFLNetwork(300, 60, rng)
	ms := Find(g, motif.Config{MinSize: 3, MaxSize: 3, MinFreq: 20, Seed: 1})
	var ffl *Motif
	for _, m := range ms {
		if Isomorphic(m.Pattern, feedForwardLoop()) {
			ffl = m
		}
	}
	if ffl == nil {
		t.Fatal("FFL class not mined")
	}
	if ffl.Frequency < 50 {
		t.Errorf("FFL frequency = %d, want >= 50", ffl.Frequency)
	}
	// Occurrences embed with correct orientation.
	for _, occ := range ffl.Occurrences {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if i != j && ffl.Pattern.HasArc(i, j) != g.HasArc(int(occ[i]), int(occ[j])) {
					t.Fatalf("occurrence %v arc mismatch", occ)
				}
			}
		}
	}
}

func TestDirectedUniqueness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := plantFFLNetwork(300, 60, rng)
	ms := Find(g, motif.Config{MinSize: 3, MaxSize: 3, MinFreq: 20, Seed: 1})
	ScoreUniqueness(g, ms, motif.UniquenessConfig{Networks: 6, CountCap: 20000, Seed: 2})
	var ffl *Motif
	for _, m := range ms {
		if Isomorphic(m.Pattern, feedForwardLoop()) {
			ffl = m
		}
	}
	if ffl == nil {
		t.Fatal("FFL missing")
	}
	if ffl.Uniqueness < 0.8 {
		t.Errorf("planted FFL uniqueness = %.2f", ffl.Uniqueness)
	}
	if got := FilterUnique(ms, 2.0); len(got) != 0 {
		t.Error("impossible filter returned motifs")
	}
}

func TestCountDirUpToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := plantFFLNetwork(120, 30, rng)
	cnt, exact := countDirUpTo(g, feedForwardLoop(), 1, 0, 0)
	if !exact {
		t.Fatal("exhaustive count not exact")
	}
	if cnt < 30 {
		t.Errorf("FFL count = %d, want >= 30", cnt)
	}
	// The directed 3-cycle is absent from this DAG-ish construction.
	c3, exact := countDirUpTo(g, threeCycle(), 3, 0, 0)
	if !exact || c3 != 0 {
		t.Errorf("C3 count = %d (exact=%v), want 0", c3, exact)
	}
}

func TestLabelDirectedMotif(t *testing.T) {
	// Plant FFLs whose positions carry coherent GO terms; labeling must
	// produce at least one scheme whose regulator/intermediate/target
	// labels differ by position.
	rng := rand.New(rand.NewSource(7))
	g := plantFFLNetwork(300, 60, rng)
	ms := Find(g, motif.Config{MinSize: 3, MaxSize: 3, MinFreq: 20, Seed: 1})
	var ffl *Motif
	for _, m := range ms {
		if Isomorphic(m.Pattern, feedForwardLoop()) {
			ffl = m
		}
	}
	if ffl == nil {
		t.Fatal("FFL missing")
	}
	ffl.Uniqueness = 1

	// GO: root -> three roles (regulator / intermediate / target), each
	// with two leaves.
	b := ontology.NewBuilder()
	b.AddTerm("R:root", "")
	roles := []string{"R:reg", "R:mid", "R:tgt"}
	leaves := map[string][]string{}
	for _, r := range roles {
		b.AddRelation(r, "R:root", ontology.IsA)
		for l := 0; l < 2; l++ {
			id := r + string(rune('a'+l))
			b.AddRelation(id, r, ontology.IsA)
			leaves[r] = append(leaves[r], id)
		}
	}
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	corpus := ontology.NewCorpus(o, 300)
	// Identify each occurrence's role positions from the pattern: position
	// with out-degree 2 = regulator, in-degree 2 = target, other = middle.
	roleOf := make([]string, 3)
	for v := 0; v < 3; v++ {
		switch {
		case ffl.Pattern.OutDegree(v) == 2:
			roleOf[v] = "R:reg"
		case ffl.Pattern.InDegree(v) == 2:
			roleOf[v] = "R:tgt"
		default:
			roleOf[v] = "R:mid"
		}
	}
	for _, occ := range ffl.Occurrences {
		for v, p := range occ {
			ls := leaves[roleOf[v]]
			corpus.Annotate(int(p), o.Index(ls[rng.Intn(len(ls))]))
		}
	}
	// MinDirect above any leaf's count: no border freezing, clusters merge
	// until one scheme per motif remains.
	labeler := label.NewLabeler(corpus, label.Config{Sigma: 10, MinDirect: 100})
	labeled := Label(labeler, ffl)
	if len(labeled) == 0 {
		t.Fatal("no labeled directed motifs")
	}
	lm := labeled[0]
	if lm.Size() != 3 || lm.Frequency < 10 {
		t.Fatalf("labeled motif wrong: %s", lm.Describe(o))
	}
	// Each position's labels must sit under its role subtree.
	for v, ts := range lm.Labels {
		role := o.Index(roleOf[v])
		for _, term := range ts {
			if !o.IsAncestorOrSelf(role, int(term)) && int(term) != role {
				t.Errorf("vertex %d labeled %s outside role %s (%s)",
					v, o.ID(int(term)), roleOf[v], lm.Describe(o))
			}
		}
	}
}

func TestDiDenseMoreAccessors(t *testing.T) {
	d := NewDiDense(4)
	d.AddArc(0, 1)
	d.AddArc(2, 3)
	if d.WeaklyConnected() {
		t.Error("disjoint arcs weakly connected")
	}
	c := d.Clone()
	c.AddArc(1, 2)
	if d.HasArc(1, 2) {
		t.Error("clone shares storage")
	}
	if d.InDegree(1) != 1 || d.InDegree(0) != 0 {
		t.Errorf("in-degrees wrong")
	}
	d.AddArc(1, 1) // self loop ignored
	if d.M() != 2 {
		t.Errorf("M = %d", d.M())
	}
}

func TestDiDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized DiDense did not panic")
		}
	}()
	NewDiDense(99)
}

func TestDiGraphArcsAndClone(t *testing.T) {
	g := NewDiGraph(3)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	arcs := g.Arcs(nil)
	if len(arcs) != 2 {
		t.Fatalf("arcs = %v", arcs)
	}
	c := g.Clone()
	c.AddArc(2, 0)
	if g.HasArc(2, 0) {
		t.Error("clone shares storage")
	}
	if g.RemoveArc(9, 0) {
		t.Error("out-of-range remove succeeded")
	}
}

func TestLabeledDiMotifDescribe(t *testing.T) {
	b := ontology.NewBuilder()
	b.AddRelation("B", "A", ontology.IsA)
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lm := &LabeledMotif{
		Pattern: feedForwardLoop(),
		Labels:  [][]int32{{int32(o.Index("B"))}, nil, nil},
	}
	s := lm.Describe(o)
	if s == "" || lm.Size() != 3 {
		t.Errorf("Describe = %q", s)
	}
}

func TestDirectedFindDegenerate(t *testing.T) {
	g := NewDiGraph(5)
	if ms := Find(g, motif.Config{MinSize: 4, MaxSize: 3, MinFreq: 1}); ms != nil {
		t.Error("inverted range")
	}
	if ms := Find(g, motif.Config{MinSize: 2, MaxSize: 3, MinFreq: 1}); len(ms) != 0 {
		t.Error("arc-less graph produced motifs")
	}
	ScoreUniqueness(g, nil, motif.UniquenessConfig{Networks: 0})
}
