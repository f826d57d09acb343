package label

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lamofinder/internal/cluster"
	"lamofinder/internal/dataset"
	"lamofinder/internal/graph"
	"lamofinder/internal/motif"
)

// soCase is one similarity calculator with the terms to label from.
type soCase struct {
	name  string
	sim   *Sim
	terms []int32
}

// soCases returns the paper example's calculator (few terms, many tied
// scores) and a small synthetic MIPS branch's (a deeper term space).
func soCases(t *testing.T) []soCase {
	t.Helper()
	pe := testExample(t)
	cfg := dataset.DefaultMIPSConfig()
	cfg.Proteins, cfg.Edges = 200, 260
	m := dataset.NewMIPS(cfg)
	mipsTerms := make([]int32, m.Ontology.NumTerms())
	for i := range mipsTerms {
		mipsTerms[i] = int32(i)
	}
	return []soCase{
		{"paper-example", NewSim(pe.Ontology, pe.Weights()), allTerms(pe)},
		{"mips", NewSim(m.Corpus.Ontology(), m.Corpus.Ontology().ComputeWeights(m.Corpus.DirectCounts())), mipsTerms},
	}
}

// soPattern draws a random connected pattern on n vertices: a random tree
// plus extra edges, or now and then a star, cycle or clique.
func soPattern(n int, rng *rand.Rand) *graph.Dense {
	d := graph.NewDense(n)
	switch rng.Intn(5) {
	case 0: // star
		for v := 1; v < n; v++ {
			d.AddEdge(0, v)
		}
	case 1: // cycle (a path below 3 vertices)
		for v := 0; v+1 < n; v++ {
			d.AddEdge(v, v+1)
		}
		d.AddEdge(n-1, 0)
	case 2: // clique
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				d.AddEdge(u, v)
			}
		}
	default:
		for v := 1; v < n; v++ {
			d.AddEdge(v, rng.Intn(v))
		}
		for e := rng.Intn(n); e > 0; e-- {
			d.AddEdge(rng.Intn(n), rng.Intn(n))
		}
	}
	return d
}

// internAll interns each set of ls into st and returns their numbers.
func internAll(st *setTable, ls [][]int32) []int32 {
	ids := make([]int32, len(ls))
	for i, ts := range ls {
		ids[i] = st.intern(ts)
	}
	return ids
}

// TestOccurrenceMatchesReference checks SO against the implementation it
// replaced on both symmetry paths: bit-identical SO and the same pairing,
// through the exported Occurrence and through the core over one label-set
// table that grows across trials, reusing one dirty scratch and pairing
// buffer across calls.
func TestOccurrenceMatchesReference(t *testing.T) {
	for _, c := range soCases(t) {
		rng := rand.New(rand.NewSource(41))
		sc := newSOScratch()
		st := newSetTable(c.sim)
		var orbitPath, autPath int
		for trial := 0; trial < 400; trial++ {
			n := 2 + rng.Intn(8)
			d := soPattern(n, rng)
			sym := NewSymmetry(d)
			if sym.ExactOrbitPairing() {
				orbitPath++
			} else {
				autPath++
			}
			la := randomLabels(n, c.terms, rng)
			lb := randomLabels(n, c.terms, rng)
			if trial%4 == 0 {
				lb = la // self-similarity: every pairing of an orbit ties
			}
			wantSO, wantPairing := c.sim.refOccurrence(la, lb, sym)
			gotSO, gotPairing := c.sim.Occurrence(la, lb, sym)
			pairing := make([]int, n)
			for i := range pairing {
				pairing[i] = -7
			}
			coreSO := st.occurrence(internAll(st, la), internAll(st, lb), sym, pairing, sc)
			for _, got := range []struct {
				so      float64
				pairing []int
			}{{gotSO, gotPairing}, {coreSO, pairing}} {
				if math.Float64bits(got.so) != math.Float64bits(wantSO) || !equalInts(got.pairing, wantPairing) {
					t.Fatalf("%s trial %d %v: got SO %v pairing %v, want %v %v",
						c.name, trial, d, got.so, got.pairing, wantSO, wantPairing)
				}
			}
		}
		if orbitPath < 50 || autPath < 50 {
			t.Fatalf("%s: %d orbit-path and %d automorphism-path patterns; both paths need coverage", c.name, orbitPath, autPath)
		}
	}
}

// TestMaxAssignmentIntoMatchesReference checks the scratch-based Hungarian
// solver against the one it replaced: the same assignment and a
// bit-identical total, with ties (scores from a small set) and without.
func TestMaxAssignmentIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sc := cluster.NewAssignScratch(graph.MaxDense)
	assign := make([]int, graph.MaxDense)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		rows := make([][]float64, n)
		flat := make([]float64, 0, n*n)
		for i := range rows {
			rows[i] = make([]float64, n)
			for j := range rows[i] {
				if trial%2 == 0 {
					rows[i][j] = float64(rng.Intn(3)) / 4
				} else {
					rows[i][j] = rng.Float64()
				}
			}
			flat = append(flat, rows[i]...)
		}
		wantAssign, wantTotal := refMaxAssignment(rows)
		total := cluster.MaxAssignmentInto(flat, n, assign, sc)
		if math.Float64bits(total) != math.Float64bits(wantTotal) || !equalInts(assign[:n], wantAssign) {
			t.Fatalf("trial %d: got %v %v, want %v %v", trial, assign[:n], total, wantAssign, wantTotal)
		}
	}
}

// TestOccurrenceAllocs gates one evaluation of the SO core over a filled
// label-set table at zero allocations, on both symmetry paths: the
// agglomeration scores millions of pairs and discards their pairings.
func TestOccurrenceAllocs(t *testing.T) {
	star, cycle := graph.NewDense(6), graph.NewDense(6)
	for v := 1; v < 6; v++ {
		star.AddEdge(0, v)
		cycle.AddEdge(v-1, v)
	}
	cycle.AddEdge(5, 0)
	for _, c := range soCases(t) {
		rng := rand.New(rand.NewSource(8))
		sc := newSOScratch()
		for _, d := range []*graph.Dense{star, cycle} {
			sym := NewSymmetry(d)
			st := newSetTable(c.sim)
			ia := internAll(st, randomLabels(6, c.terms, rng))
			ib := internAll(st, randomLabels(6, c.terms, rng))
			pairing := make([]int, 6)
			if a := testing.AllocsPerRun(100, func() { st.occurrence(ia, ib, sym, pairing, sc) }); a != 0 {
				t.Errorf("%s %v (exact orbit pairing %v): %v allocs per SO, want 0", c.name, d, sym.ExactOrbitPairing(), a)
			}
		}
	}
}

// TestOccurrenceConcurrent scores the same pairs from several goroutines
// at once, sharing the term cache as LabelAll's workers do; under -race it
// certifies that no scratch is shared, and every SO and pairing must match
// the serial result.
func TestOccurrenceConcurrent(t *testing.T) {
	c := soCases(t)[1]
	rng := rand.New(rand.NewSource(12))
	type pair struct {
		la, lb [][]int32
		sym    *Symmetry
	}
	pairs := make([]pair, 64)
	want := make([]float64, len(pairs))
	wantPairing := make([][]int, len(pairs))
	for i := range pairs {
		n := 3 + rng.Intn(6)
		pairs[i] = pair{randomLabels(n, c.terms, rng), randomLabels(n, c.terms, rng), NewSymmetry(soPattern(n, rng))}
		want[i], wantPairing[i] = c.sim.Occurrence(pairs[i].la, pairs[i].lb, pairs[i].sym)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for gi := 0; gi < 8; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for k := 0; k < 20*len(pairs); k++ {
				i := (k*(gi+1) + gi) % len(pairs)
				so, pairing := c.sim.Occurrence(pairs[i].la, pairs[i].lb, pairs[i].sym)
				if math.Float64bits(so) != math.Float64bits(want[i]) || !equalInts(pairing, wantPairing[i]) {
					select {
					case errs <- "SO or pairing differs under concurrency":
					default:
					}
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMaxAssignment2x2MatchesReference sweeps 2×2 problems, where the
// solver answers in closed form, against the Hungarian solver it replaced:
// every matrix over a five-value grid, where rows and differences tie
// everywhere, and matrices whose entries lie within one ulp of a common
// value, where the closed form's comparisons are closest to the reference's
// own rounding. Assignment and total must match bit for bit.
func TestMaxAssignment2x2MatchesReference(t *testing.T) {
	sc := cluster.NewAssignScratch(2)
	assign := make([]int, 2)
	check := func(s []float64) {
		t.Helper()
		wantAssign, wantTotal := refMaxAssignment([][]float64{{s[0], s[1]}, {s[2], s[3]}})
		total := cluster.MaxAssignmentInto(s, 2, assign, sc)
		if math.Float64bits(total) != math.Float64bits(wantTotal) || !equalInts(assign, wantAssign) {
			t.Fatalf("%v: got %v %v, want %v %v", s, assign, total, wantAssign, wantTotal)
		}
	}
	grid := []float64{0, 0.25, 0.5, 0.75, 1}
	s := make([]float64, 4)
	for k := 0; k < 625; k++ {
		for i, r := 0, k; i < 4; i, r = i+1, r/5 {
			s[i] = grid[r%5]
		}
		check(s)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		base := grid[rng.Intn(len(grid))]
		if trial%2 == 1 {
			base = rng.Float64()
		}
		near := []float64{math.Nextafter(base, -1), base, math.Nextafter(base, 2)}
		for k := 0; k < 81; k++ {
			for i, r := 0, k; i < 4; i, r = i+1, r/3 {
				s[i] = near[r%3]
			}
			check(s)
		}
	}
}

// TestLabelOccurrencesMatchesReference clusters random occurrence sets of
// the MIPS corpus under star, cycle and random patterns, so both symmetry
// paths run, and requires the schemes of the labeler as it stood before
// its label-set table (labeler_ref_test.go): the same labels, occurrences
// and order. LabelAll must then give the same schemes, in motif order, at
// 1 and 4 workers.
func TestLabelOccurrencesMatchesReference(t *testing.T) {
	cfg := dataset.DefaultMIPSConfig()
	cfg.Proteins, cfg.Edges = 200, 260
	m := dataset.NewMIPS(cfg)
	lcfg := DefaultConfig()
	lcfg.Sigma, lcfg.MinDirect, lcfg.MaxOccurrences = 2, 10, 0
	rng := rand.New(rand.NewSource(29))
	var orbitPath, autPath int
	var motifs []*motif.Motif
	var want []*Scheme
	for trial := 0; trial < 15; trial++ {
		n := 4 + trial%4
		d := graph.NewDense(n)
		switch trial % 3 {
		case 0: // star
			for v := 1; v < n; v++ {
				d.AddEdge(0, v)
			}
		case 1: // cycle
			for v := 1; v < n; v++ {
				d.AddEdge(v-1, v)
			}
			d.AddEdge(n-1, 0)
		default:
			d = soPattern(n, rng)
		}
		sym := NewSymmetry(d)
		if sym.ExactOrbitPairing() {
			orbitPath++
		} else {
			autPath++
		}
		occs := make([][]int32, 40+rng.Intn(80))
		for i := range occs {
			for _, p := range rng.Perm(cfg.Proteins)[:n] {
				occs[i] = append(occs[i], int32(p))
			}
		}
		l := NewLabeler(m.Corpus, lcfg)
		ref := l.refLabelOccurrences(n, occs, sym)
		if got := l.LabelOccurrences(n, occs, sym); !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d %v: schemes differ from the reference", trial, d)
		}
		motifs = append(motifs, &motif.Motif{Pattern: d, Occurrences: occs})
		want = append(want, ref...)
	}
	if orbitPath < 3 || autPath < 3 || len(want) == 0 {
		t.Fatalf("%d orbit-path and %d automorphism-path patterns, %d schemes; need both paths and some schemes", orbitPath, autPath, len(want))
	}
	for _, workers := range []int{1, 4} {
		lcfg.Parallelism = workers
		var got []*Scheme
		for _, lm := range NewLabeler(m.Corpus, lcfg).LabelAll(motifs) {
			got = append(got, &Scheme{Labels: lm.Labels, Occurrences: lm.Occurrences})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("LabelAll at %d workers: schemes differ from the reference", workers)
		}
	}
}

// TestSetTableKeepsBothOrders finds label sets whose SV differs between
// the two argument orders (Vertex multiplies its factors in argument
// order, so the last bit can differ) and requires each table entry to hold
// its own order's value. A table keeping one value per unordered pair
// fails here.
func TestSetTableKeepsBothOrders(t *testing.T) {
	c := soCases(t)[1]
	rng := rand.New(rand.NewSource(5))
	st := newSetTable(c.sim)
	draw := func() []int32 { // 2 to 5 terms: more factors, more rounding
		ts := make([]int32, 2+rng.Intn(4))
		for i := range ts {
			ts[i] = c.terms[rng.Intn(len(c.terms))]
		}
		return ts
	}
	found := 0
	for trial := 0; trial < 200_000; trial++ {
		x, y := draw(), draw()
		xy, yx := c.sim.Vertex(x, y), c.sim.Vertex(y, x)
		if math.Float64bits(xy) == math.Float64bits(yx) {
			continue
		}
		found++
		ix, iy := st.intern(x), st.intern(y)
		if got := st.at(ix, iy); math.Float64bits(got) != math.Float64bits(xy) {
			t.Fatalf("table entry for %v then %v reads %v, want Vertex %v", x, y, got, xy)
		}
		if got := st.at(iy, ix); math.Float64bits(got) != math.Float64bits(yx) {
			t.Fatalf("table entry for %v then %v reads %v, want Vertex %v", y, x, got, yx)
		}
	}
	if found == 0 {
		t.Fatal("no label sets with order-dependent SV; the test shows nothing")
	}
	t.Logf("%d order-dependent pairs, %d sets in the table", found, len(st.sets))
}
