package dimotif

import (
	"math/rand"
	"sort"
)

// DiGraph is a sparse directed simple graph (e.g. a gene regulatory
// network, the directed setting the paper's conclusion points at).
type DiGraph struct {
	out, in [][]int32
	arcs    int
}

// NewDiGraph returns a directed graph with n isolated vertices.
func NewDiGraph(n int) *DiGraph {
	return &DiGraph{out: make([][]int32, n), in: make([][]int32, n)}
}

// N returns the vertex count.
func (g *DiGraph) N() int { return len(g.out) }

// M returns the arc count.
func (g *DiGraph) M() int { return g.arcs }

// AddArc adds u -> v (self-loops and duplicates ignored); reports whether a
// new arc was added.
func (g *DiGraph) AddArc(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= len(g.out) || v >= len(g.out) {
		return false
	}
	var ok bool
	if g.out[u], ok = insertSorted32(g.out[u], int32(v)); !ok {
		return false
	}
	g.in[v], _ = insertSorted32(g.in[v], int32(u))
	g.arcs++
	return true
}

// RemoveArc removes u -> v if present.
func (g *DiGraph) RemoveArc(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.out) || v >= len(g.out) {
		return false
	}
	if !removeSorted32(&g.out[u], int32(v)) {
		return false
	}
	removeSorted32(&g.in[v], int32(u))
	g.arcs--
	return true
}

// HasArc reports whether u -> v exists.
func (g *DiGraph) HasArc(u, v int) bool {
	if u < 0 || u >= len(g.out) {
		return false
	}
	s := g.out[u]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= int32(v) })
	return i < len(s) && s[i] == int32(v)
}

// OutDegree and InDegree return the respective degrees of v.
func (g *DiGraph) OutDegree(v int) int { return len(g.out[v]) }

// InDegree returns the in-degree of v.
func (g *DiGraph) InDegree(v int) int { return len(g.in[v]) }

// Arcs appends every arc (u, v) to dst and returns it.
func (g *DiGraph) Arcs(dst [][2]int32) [][2]int32 {
	for u := range g.out {
		for _, v := range g.out[u] {
			dst = append(dst, [2]int32{int32(u), v})
		}
	}
	return dst
}

// Clone returns a deep copy.
func (g *DiGraph) Clone() *DiGraph {
	c := &DiGraph{out: make([][]int32, len(g.out)), in: make([][]int32, len(g.in)), arcs: g.arcs}
	for i := range g.out {
		c.out[i] = append([]int32(nil), g.out[i]...)
		c.in[i] = append([]int32(nil), g.in[i]...)
	}
	return c
}

// weakNeighbors calls f for each distinct weak neighbor of v (union of in-
// and out-neighbors, merged without duplicates).
func (g *DiGraph) weakNeighbors(v int, f func(w int32)) {
	a, b := g.out[v], g.in[v]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			f(a[i])
			i++
			j++
		case a[i] < b[j]:
			f(a[i])
			i++
		default:
			f(b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		f(a[i])
	}
	for ; j < len(b); j++ {
		f(b[j])
	}
}

// FillInducedDi resets d to the directed induced subgraph on vs, in vs
// order, reusing d's storage across the miner's candidates.
func (g *DiGraph) FillInducedDi(d *DiDense, vs []int32) {
	d.Reset(len(vs))
	for i := range vs {
		for j := range vs {
			if i != j && g.HasArc(int(vs[i]), int(vs[j])) {
				d.AddArc(i, j)
			}
		}
	}
}

// Randomize returns an in/out-degree-preserving randomization via directed
// double-arc swaps: (a->b, c->d) becomes (a->d, c->b) when both new arcs
// are absent and create no self-loop. attempts defaults to 10x the arc
// count when <= 0.
func (g *DiGraph) Randomize(attempts int, rng *rand.Rand) *DiGraph {
	r := g.Clone()
	arcs := r.Arcs(nil)
	if len(arcs) < 2 {
		return r
	}
	if attempts <= 0 {
		attempts = 10 * len(arcs)
	}
	for t := 0; t < attempts; t++ {
		i, j := rng.Intn(len(arcs)), rng.Intn(len(arcs))
		if i == j {
			continue
		}
		a, b := int(arcs[i][0]), int(arcs[i][1])
		c, d := int(arcs[j][0]), int(arcs[j][1])
		if a == d || c == b || (a == c && b == d) {
			continue
		}
		if r.HasArc(a, d) || r.HasArc(c, b) {
			continue
		}
		r.RemoveArc(a, b)
		r.RemoveArc(c, d)
		r.AddArc(a, d)
		r.AddArc(c, b)
		arcs[i] = [2]int32{int32(a), int32(d)}
		arcs[j] = [2]int32{int32(c), int32(b)}
	}
	return r
}

func insertSorted32(s []int32, x int32) ([]int32, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i < len(s) && s[i] == x {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s, true
}

func removeSorted32(s *[]int32, x int32) bool {
	t := *s
	i := sort.Search(len(t), func(i int) bool { return t[i] >= x })
	if i >= len(t) || t[i] != x {
		return false
	}
	*s = append(t[:i], t[i+1:]...)
	return true
}
