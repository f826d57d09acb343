package graph

import (
	"math"
	"math/rand"
	"sync"
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

// TestMatcherBudgetEdges checks the matcher against the reference at the
// budgets where a count turns exact: T-1, T and T+1, where T is the full
// search's step count, and at a dense sweep of budgets below T. The
// graphs are sparse with hubs, so a cycle-closing position passes over
// long runs of candidates that fail its first need test, and the sweep
// lands budgets on the last step of such runs.
func TestMatcherBudgetEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var graphs []*Graph
	for i := 0; i < 3; i++ {
		n := 40 + rng.Intn(41)
		graphs = append(graphs, erGraph(n, n+n/2, rng), baGraph(n, 1+i%2, rng))
	}
	var patterns []*Dense
	for k := 3; k <= 8; k++ {
		patterns = append(patterns, cyclePattern(k), cliquePattern(k))
	}
	for gi, g := range graphs {
		mt, adj := NewMatcher(g), NewAdjBits(g)
		for _, p := range patterns {
			plan, aut := NewMatchPlan(p), len(Automorphisms(p, 0))
			for _, limit := range []int{0, 2} {
				total := searchSteps(mt, plan, limit)
				budgets := []int64{total - 1, total, total + 1}
				stride := total/100 + 1
				for steps := int64(1); steps < total-1; steps += stride {
					budgets = append(budgets, steps)
				}
				for _, steps := range budgets {
					if steps < 1 {
						continue // 0 is no budget at all
					}
					wantN, wantExact := refCountInducedUpTo(g, adj, p, aut, limit, steps)
					gotN, gotExact := mt.CountInducedUpTo(plan, limit, steps)
					if gotN != wantN || gotExact != wantExact {
						t.Fatalf("graph %d pattern %v limit %d steps %d of %d: got (%d, %v), want (%d, %v)",
							gi, p, limit, steps, total, gotN, gotExact, wantN, wantExact)
					}
				}
			}
		}
	}
}

// searchSteps returns the steps plan's search takes at limit: the least
// budget at which its count comes back exact.
func searchSteps(mt *Matcher, plan *MatchPlan, limit int) int64 {
	lo, hi := int64(0), int64(1) // inexact at lo (or lo = 0), exact at hi
	for {
		if _, exact := mt.CountInducedUpTo(plan, limit, hi); exact {
			break
		}
		lo, hi = hi, 2*hi
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if _, exact := mt.CountInducedUpTo(plan, limit, mid); exact {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
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

// TestMatcherAttach: matchers attached to one network count concurrently,
// each with its own marks over the shared rows, and read what the network's
// own matcher reads; attached again to another network, a matcher counts
// that network.
func TestMatcherAttach(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nets := []*Matcher{NewMatcher(baGraph(120, 2, rng)), NewMatcher(erGraph(120, 260, rng))}
	patterns := matcherTestPatterns(rng)
	plans := make([]*MatchPlan, len(patterns))
	for i, p := range patterns {
		plans[i] = NewMatchPlan(p)
	}
	views := make([]Matcher, 3)
	for ni, src := range nets {
		type result struct {
			count int
			exact bool
		}
		want := make([]result, len(plans))
		for i, plan := range plans {
			want[i].count, want[i].exact = src.CountInducedUpTo(plan, 200, 50_000)
		}
		var wg sync.WaitGroup
		for w := range views {
			views[w].Attach(src)
			wg.Add(1)
			go func(mt *Matcher) {
				defer wg.Done()
				for i, plan := range plans {
					var got result
					if got.count, got.exact = mt.CountInducedUpTo(plan, 200, 50_000); got != want[i] {
						t.Errorf("network %d pattern %d: attached count %+v, want %+v", ni, i, got, want[i])
					}
				}
			}(&views[w])
		}
		wg.Wait()
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
