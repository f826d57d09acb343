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

func newSOScratch() *soScratch {
	return &soScratch{hung: cluster.NewAssignScratch(graph.MaxDense)}
}

// TestOccurrenceMatchesReference checks SO against the implementation it
// replaced on both symmetry paths: bit-identical SO and the same pairing,
// through the exported Occurrence and through the core reusing one dirty
// scratch and pairing buffer across calls.
func TestOccurrenceMatchesReference(t *testing.T) {
	for _, c := range soCases(t) {
		rng := rand.New(rand.NewSource(41))
		sc := newSOScratch()
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
			coreSO := c.sim.occurrence(la, lb, sym, pairing, sc)
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

// TestOccurrenceAllocs gates one SO evaluation on a warmed Sim at zero
// allocations, on both symmetry paths: the agglomeration scores millions
// of pairs and discards their pairings.
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
			la := randomLabels(6, c.terms, rng)
			lb := randomLabels(6, c.terms, rng)
			pairing := make([]int, 6)
			c.sim.occurrence(la, lb, sym, pairing, sc) // warm the term cache
			if a := testing.AllocsPerRun(100, func() { c.sim.occurrence(la, lb, sym, pairing, sc) }); a != 0 {
				t.Errorf("%s %v (exact orbit pairing %v): %v allocs per SO, want 0", c.name, d, sym.ExactOrbitPairing(), a)
			}
		}
	}
}

// TestOccurrenceConcurrent scores the same pairs from several goroutines
// at once, each taking pooled scratch as the agglomeration's row chunks
// do; under -race it certifies that no scratch is shared, and every SO and
// pairing must match the serial result.
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

// TestLabelOccurrencesParallelRows clusters enough occurrences that the
// similarity rows fan out in chunks across workers, and checks the schemes
// match a single worker's on both symmetry paths.
func TestLabelOccurrencesParallelRows(t *testing.T) {
	cfg := dataset.DefaultMIPSConfig()
	cfg.Proteins, cfg.Edges = 200, 260
	m := dataset.NewMIPS(cfg)
	rng := rand.New(rand.NewSource(4))
	star, cycle := graph.NewDense(5), graph.NewDense(5)
	for v := 1; v < 5; v++ {
		star.AddEdge(0, v)
		cycle.AddEdge(v-1, v)
	}
	cycle.AddEdge(4, 0)
	occs := make([][]int32, 3*minParallelRow)
	for i := range occs {
		for _, p := range rng.Perm(cfg.Proteins)[:5] {
			occs[i] = append(occs[i], int32(p))
		}
	}
	for _, d := range []*graph.Dense{star, cycle} {
		var want []*Scheme
		for _, workers := range []int{1, 4} {
			lcfg := DefaultConfig()
			lcfg.Sigma, lcfg.MinDirect, lcfg.MaxOccurrences, lcfg.Parallelism = 2, 10, 0, workers
			got := NewLabeler(m.Corpus, lcfg).LabelOccurrences(5, occs, NewSymmetry(d))
			if workers == 1 {
				if len(got) == 0 {
					t.Fatalf("%v: no schemes", d)
				}
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: schemes differ between 1 and %d workers", d, workers)
			}
		}
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
