package ontology

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomWeights returns arbitrary (not necessarily monotone) weights; the
// index must agree with the brute-force LCA under any weight vector.
func randomWeights(n int, rng *rand.Rand) Weights {
	w := make(Weights, n)
	for i := range w {
		w[i] = rng.Float64()
	}
	return w
}

// checkParity compares the index against the ontology's brute-force
// LCA and Lin on every term pair (floats must match exactly: the index
// replays the same arithmetic on the same LCA term).
func checkParity(t *testing.T, o *Ontology, w Weights, x *LCAIndex) {
	t.Helper()
	n := o.NumTerms()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			want := o.LCA(w, a, b)
			if got := x.LCA(a, b); got != want {
				t.Fatalf("LCA(%d,%d): index %d, brute %d", a, b, got, want)
			}
			if got, want := x.Lin(a, b), o.Lin(w, a, b); got != want {
				t.Fatalf("Lin(%d,%d): index %v, brute %v", a, b, got, want)
			}
		}
	}
}

func TestLCAIndexMatchesBruteDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		cfg := DefaultSyntheticConfig("X", 40+rng.Intn(60))
		o := Synthetic(cfg, rng) // MultiParentProb 0.15: a true DAG
		var w Weights
		if trial%2 == 0 {
			direct := make([]int, o.NumTerms())
			for i := 0; i < o.NumTerms(); i++ {
				direct[i] = rng.Intn(5)
			}
			w = o.ComputeWeights(direct)
		} else {
			w = randomWeights(o.NumTerms(), rng)
		}
		checkParity(t, o, w, NewLCAIndex(o, w))
	}
}

func TestLCAIndexMatchesBruteForest(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		cfg := DefaultSyntheticConfig("T", 40+rng.Intn(60))
		cfg.MultiParentProb = 0 // every term has exactly one parent: a tree
		o := Synthetic(cfg, rng)
		x := NewLCAIndex(o, randomWeights(o.NumTerms(), rng))
		if !x.forest {
			t.Fatal("single-parent ontology should take the forest fast path")
		}
		checkParity(t, o, x.w, x)
	}
}

func TestLCAIndexMultiRootForest(t *testing.T) {
	// Two disjoint trees: cross-tree pairs share no ancestor (LCA -1).
	b := NewBuilder()
	for i := 0; i < 8; i++ {
		b.AddTerm(fmt.Sprintf("A:%d", i), "")
	}
	for _, e := range [][2]int{{1, 0}, {2, 0}, {3, 1}, {5, 4}, {6, 4}, {7, 5}} {
		b.AddRelation(fmt.Sprintf("A:%d", e[0]), fmt.Sprintf("A:%d", e[1]), IsA)
	}
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := NewLCAIndex(o, randomWeights(o.NumTerms(), rng))
	if !x.forest {
		t.Fatal("expected forest fast path")
	}
	if got := x.LCA(3, 7); got != -1 {
		t.Fatalf("cross-tree LCA = %d, want -1", got)
	}
	checkParity(t, o, x.w, x)
}

func TestAncestorsSharedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	o := Synthetic(DefaultSyntheticConfig("S", 80), rng)
	for tm := 0; tm < o.NumTerms(); tm++ {
		a1, a2 := o.Ancestors(tm), o.Ancestors(tm)
		if len(a1) != len(a2) {
			t.Fatalf("term %d: inconsistent ancestor lists", tm)
		}
		if len(a1) > 0 && &a1[0] != &a2[0] {
			t.Fatalf("term %d: Ancestors should return the shared precomputed slice", tm)
		}
		// Content parity with the bitset.
		want := 0
		o.anc[tm].each(func(x int) {
			if x == tm {
				return
			}
			if a1[want] != x {
				t.Fatalf("term %d: ancestor %d != bitset %d", tm, a1[want], x)
			}
			want++
		})
		if want != len(a1) {
			t.Fatalf("term %d: %d ancestors, bitset has %d", tm, len(a1), want)
		}
	}
}

// fuzzOntology derives a small DAG from raw bytes: term i's parent is
// data-chosen among earlier terms (acyclic by construction), with an
// optional second parent, and weights come from the remaining bytes.
func fuzzOntology(data []byte) (*Ontology, Weights) {
	if len(data) < 2 {
		return nil, nil
	}
	n := 2 + int(data[0])%22
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddTerm(fmt.Sprintf("F:%d", i), "")
	}
	k := 1
	next := func() int {
		if k >= len(data) {
			return 0
		}
		v := int(data[k])
		k++
		return v
	}
	for i := 1; i < n; i++ {
		p := next() % i
		b.AddRelation(fmt.Sprintf("F:%d", i), fmt.Sprintf("F:%d", p), IsA)
		if next()%4 == 0 { // second parent: exercise the DAG path
			if p2 := next() % i; p2 != p {
				b.AddRelation(fmt.Sprintf("F:%d", i), fmt.Sprintf("F:%d", p2), IsA)
			}
		}
	}
	o, err := b.Build()
	if err != nil {
		return nil, nil // unreachable: parents always precede children
	}
	w := make(Weights, n)
	for i := range w {
		w[i] = float64(next()) / 255
	}
	return o, w
}

// FuzzLCAIndex cross-checks the RMQ/packed-list index against an
// independent brute-force walk over the ancestor DAG.
func FuzzLCAIndex(f *testing.F) {
	f.Add([]byte{0, 1})
	f.Add([]byte{5, 0, 0, 1, 1, 0, 2, 200, 100, 50, 25, 12})
	f.Add([]byte{20, 0, 0, 1, 3, 0, 2, 0, 5, 1, 0, 3, 0, 7, 2, 1, 9, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 77})
	f.Add([]byte{9, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		o, w := fuzzOntology(data)
		if o == nil {
			return
		}
		x := NewLCAIndex(o, w)
		n := o.NumTerms()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				// Brute force: lexicographic (weight, index) min over the
				// explicit common-ancestor set, built by slice walks (no
				// shared code with either fast path).
				best := -1
				for _, c := range append(o.Ancestors(a), a) {
					if c != b && !o.IsAncestorOrSelf(c, b) {
						continue
					}
					if best < 0 || w[c] < w[best] || (w[c] == w[best] && c < best) {
						best = c
					}
				}
				if got := x.LCA(a, b); got != best {
					t.Fatalf("LCA(%d,%d): index %d, brute %d", a, b, got, best)
				}
				if got, want := x.Lin(a, b), o.Lin(w, a, b); got != want {
					t.Fatalf("Lin(%d,%d): index %v, brute %v", a, b, got, want)
				}
			}
		}
	})
}
