// Package randnet generates random networks: the degree-preserving null
// model used for motif uniqueness testing (Milo et al.), generative models
// (Barabási–Albert, duplication-divergence) used to synthesize PPI-like
// interactomes, and Erdős–Rényi graphs for tests.
package randnet

import (
	"math/rand"

	"lamofinder/internal/graph"
)

// ErdosRenyi returns a G(n, m) random simple graph with exactly m edges
// (or fewer if m exceeds the number of vertex pairs).
//
// lamovet:keep test graph generator shared by internal/motif (esu_ref_test.go, find_ref_test.go, motif_test.go) and this package
func ErdosRenyi(n, m int, rng *rand.Rand) *graph.Graph {
	if n < 2 {
		// No vertex pair exists, so the rejection loop below could never
		// terminate for m > 0.
		return graph.New(max(n, 0))
	}
	g := graph.New(n)
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	for g.M() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		g.AddEdge(u, v)
	}
	return g
}

// BarabasiAlbert returns a preferential-attachment graph: starting from a
// connected seed of m0 vertices, each new vertex attaches to mAttach
// existing vertices chosen proportionally to degree.
func BarabasiAlbert(n, m0, mAttach int, rng *rand.Rand) *graph.Graph {
	if m0 < 2 {
		m0 = 2
	}
	if m0 > n {
		m0 = n
	}
	if mAttach < 1 {
		mAttach = 1
	}
	g := graph.New(n)
	// Repeated-vertex list implements preferential attachment in O(1).
	var urn []int
	for v := 1; v < m0; v++ {
		g.AddEdge(v-1, v)
		urn = append(urn, v-1, v)
	}
	for v := m0; v < n; v++ {
		added := 0
		for attempt := 0; added < mAttach && attempt < 20*mAttach; attempt++ {
			var target int
			if len(urn) == 0 {
				target = rng.Intn(v)
			} else {
				target = urn[rng.Intn(len(urn))]
			}
			if g.AddEdge(v, target) {
				urn = append(urn, v, target)
				added++
			}
		}
	}
	return g
}

// DuplicationDivergence grows a PPI-like network by gene duplication: each
// new vertex copies a random template's edges, keeping each with probability
// retain, and attaches to the template itself with probability pAttach.
// This model reproduces the heavy-tailed, locally clustered topology of
// experimentally derived interactomes.
func DuplicationDivergence(n int, retain, pAttach float64, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	if n >= 2 {
		g.AddEdge(0, 1)
	}
	for v := 2; v < n; v++ {
		tpl := rng.Intn(v)
		for _, w := range g.Neighbors(tpl) {
			if rng.Float64() < retain {
				g.AddEdge(v, int(w))
			}
		}
		if rng.Float64() < pAttach {
			g.AddEdge(v, tpl)
		}
		if g.Degree(v) == 0 { // keep the network from fragmenting
			g.AddEdge(v, tpl)
		}
	}
	return g
}

// SwitchEdges returns a randomized copy of g with the same degree sequence,
// produced by attempted double-edge swaps: pick edges {a,b}, {c,d} and
// rewire to {a,d}, {c,b} when that creates no duplicate or self edge.
// attempts is the number of swap attempts; Milo et al. recommend on the
// order of 10x the edge count, which QD(g, rng) uses.
func SwitchEdges(g *graph.Graph, attempts int, rng *rand.Rand) *graph.Graph {
	r := g.Clone()
	edges := r.Edges(nil)
	if len(edges) < 2 {
		return r
	}
	for t := 0; t < attempts; t++ {
		i, j := rng.Intn(len(edges)), rng.Intn(len(edges))
		if i == j {
			continue
		}
		a, b := int(edges[i][0]), int(edges[i][1])
		c, d := int(edges[j][0]), int(edges[j][1])
		if rng.Intn(2) == 0 {
			b, a = a, b
		}
		// Proposed rewiring: {a,d}, {c,b}.
		if a == d || c == b || a == c || b == d {
			continue
		}
		if r.HasEdge(a, d) || r.HasEdge(c, b) {
			continue
		}
		r.RemoveEdge(a, b)
		r.RemoveEdge(c, d)
		r.AddEdge(a, d)
		r.AddEdge(c, b)
		edges[i] = orient(a, d)
		edges[j] = orient(c, b)
	}
	return r
}

func orient(u, v int) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{int32(u), int32(v)}
}

// Randomize returns a degree-preserving randomization of g using 10*M swap
// attempts, the conventional setting for motif null models.
func Randomize(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	return SwitchEdges(g, 10*g.M(), rng)
}
