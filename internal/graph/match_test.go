package graph

import (
	"math"
	"math/rand"
	"testing"
)

// erGraph returns a G(n, m) random graph.
func erGraph(n, m int, rng *rand.Rand) *Graph {
	g := New(n)
	for g.M() < m {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

// baGraph returns a Barabási–Albert graph: each new vertex attaches to
// attach distinct earlier vertices picked proportionally to degree.
func baGraph(n, attach int, rng *rand.Rand) *Graph {
	g := New(n)
	var ends []int // one entry per edge endpoint: degree-proportional sampling
	for v := 1; v <= attach && v < n; v++ {
		g.AddEdge(0, v)
		ends = append(ends, 0, v)
	}
	for v := attach + 1; v < n; v++ {
		for added := 0; added < attach; {
			if u := ends[rng.Intn(len(ends))]; g.AddEdge(u, v) {
				ends = append(ends, u, v)
				added++
			}
		}
	}
	return g
}

// connectedPattern returns a random connected k-vertex pattern: a random
// spanning tree plus each remaining pair with probability extra.
func connectedPattern(k int, extra float64, rng *rand.Rand) *Dense {
	d := NewDense(k)
	for v := 1; v < k; v++ {
		d.AddEdge(v, rng.Intn(v))
	}
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			if rng.Float64() < extra {
				d.AddEdge(u, v)
			}
		}
	}
	return d.Permute(rng.Perm(k))
}

func starPattern(k int) *Dense {
	d := NewDense(k)
	for v := 1; v < k; v++ {
		d.AddEdge(0, v)
	}
	return d
}

func cyclePattern(k int) *Dense {
	d := NewDense(k)
	for v := 0; v < k; v++ {
		d.AddEdge(v, (v+1)%k)
	}
	return d
}

func cliquePattern(k int) *Dense {
	d := NewDense(k)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			d.AddEdge(u, v)
		}
	}
	return d
}

// matcherTestPatterns covers k = 1..8: random connected shapes of several
// densities plus stars, cycles and cliques.
func matcherTestPatterns(rng *rand.Rand) []*Dense {
	var ps []*Dense
	for k := 1; k <= 8; k++ {
		for _, extra := range []float64{0, 0.2, 0.5} {
			ps = append(ps, connectedPattern(k, extra, rng))
		}
		ps = append(ps, starPattern(k), cliquePattern(k))
		if k >= 3 {
			ps = append(ps, cyclePattern(k))
		}
	}
	return ps
}

// TestMatcherMatchesReference checks the explicit-stack matcher against the
// recursive one it replaced: identical (count, exact) over random
// Erdős–Rényi and Barabási–Albert graphs, every test pattern, count limits
// {0, 1, small, large} and step budgets {0, 1, 37, 1000}, so budget
// exhaustion lands at many points of the search.
func TestMatcherMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var graphs []*Graph
	for i := 0; i < 5; i++ {
		n := 14 + rng.Intn(12)
		graphs = append(graphs, erGraph(n, n+rng.Intn(n), rng), baGraph(n, 1+i%3, rng))
	}
	patterns := matcherTestPatterns(rng)
	plans := make([]*MatchPlan, len(patterns))
	auts := make([]int, len(patterns))
	for i, p := range patterns {
		plans[i] = NewMatchPlan(p)
		auts[i] = len(Automorphisms(p, 0))
	}
	runs, partial := 0, 0
	for gi, g := range graphs {
		// One matcher per graph serves every count, so a count that
		// leaked used-vertex marks would corrupt the ones after it.
		mt, adj := NewMatcher(g), NewAdjBits(g)
		for pi, p := range patterns {
			for _, limit := range []int{0, 1, 3, 40} {
				for _, steps := range []int64{0, 1, 37, 1000} {
					wantN, wantExact := refCountInducedUpTo(g, adj, p, auts[pi], limit, steps)
					gotN, gotExact := mt.CountInducedUpTo(plans[pi], limit, steps)
					if gotN != wantN || gotExact != wantExact {
						t.Fatalf("graph %d pattern %d (%v) limit %d steps %d: got (%d, %v), want (%d, %v)",
							gi, pi, p, limit, steps, gotN, gotExact, wantN, wantExact)
					}
					runs++
					if !wantExact {
						partial++
					}
				}
			}
		}
	}
	if partial == 0 || partial == runs {
		t.Fatalf("%d of %d runs exhausted their budget; the grid must cover both outcomes", partial, runs)
	}
}

// TestMatcherCountAllocs gates the matcher's inner loop at zero allocations
// once the per-network view and the plan exist.
func TestMatcherCountAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mt := NewMatcher(baGraph(200, 2, rng))
	for _, p := range []*Dense{starPattern(5), cyclePattern(6), connectedPattern(7, 0.2, rng)} {
		plan := NewMatchPlan(p)
		for _, steps := range []int64{0, 500} {
			if a := testing.AllocsPerRun(20, func() { mt.CountInducedUpTo(plan, 50, steps) }); a != 0 {
				t.Errorf("pattern %v steps %d: %v allocs per count, want 0", p, steps, a)
			}
		}
	}
}

// TestAutomorphismCountMatchesEnumeration compares the orbit–stabilizer
// count against the size of the enumerated group on random small
// patterns, connected or not.
func TestAutomorphismCountMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(8)
		d := NewDense(k)
		density := rng.Float64()
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				if rng.Float64() < density {
					d.AddEdge(u, v)
				}
			}
		}
		if got, want := AutomorphismCount(d), int64(len(Automorphisms(d, 0))); got != want {
			t.Fatalf("trial %d %v: AutomorphismCount = %d, enumeration gives %d", trial, d, got, want)
		}
	}
	for _, d := range matcherTestPatterns(rng) {
		if got, want := AutomorphismCount(d), int64(len(Automorphisms(d, 0))); got != want {
			t.Fatalf("%v: AutomorphismCount = %d, enumeration gives %d", d, got, want)
		}
	}
}

// TestAutomorphismCountStars checks |Aut| = (k-1)! on k-vertex stars up to
// k = 21, the largest that fits in an int64, and saturation beyond it.
func TestAutomorphismCountStars(t *testing.T) {
	fact := int64(1) // (2-1)!, though the 2-vertex "star" K2 has |Aut| = 2
	for k := 3; k <= 21; k++ {
		fact *= int64(k - 1)
		if got := AutomorphismCount(starPattern(k)); got != fact {
			t.Fatalf("|Aut(S_%d)| = %d, want %d", k, got, fact)
		}
		// With the hub last, the stabilizer chain fixes leaves first.
		if got := AutomorphismCount(starPattern(k).Permute(reversed(k))); got != fact {
			t.Fatalf("|Aut(S_%d)| hub last = %d, want %d", k, got, fact)
		}
	}
	for _, k := range []int{22, MaxDense} {
		if got := AutomorphismCount(starPattern(k)); got != math.MaxInt64 {
			t.Fatalf("|Aut(S_%d)| = %d, want saturation at MaxInt64", k, got)
		}
	}
}

// TestSatMul checks the saturating product behind |Aut| and limit·|Aut|.
func TestSatMul(t *testing.T) {
	for _, c := range []struct{ a, b, want int64 }{
		{0, math.MaxInt64, 0},
		{3, 5, 15},
		{1, math.MaxInt64, math.MaxInt64},
		{2, 1 << 62, math.MaxInt64},
		{4, 1 << 62, math.MaxInt64}, // wraps to 0 unsaturated
		{math.MaxInt64, 2, math.MaxInt64},
	} {
		if got := satMul(c.a, c.b); got != c.want {
			t.Errorf("satMul(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func reversed(k int) []int {
	p := make([]int, k)
	for i := range p {
		p[i] = k - 1 - i
	}
	return p
}
