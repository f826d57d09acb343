// Package graph provides the undirected-graph substrate used throughout the
// LaMoFinder reproduction: a sparse simple graph for whole interactomes, a
// dense bit-matrix graph for small motif patterns, subgraph isomorphism
// (VF2), canonical codes for pattern classes, and automorphism orbits
// (the paper's "symmetric vertex sets").
package graph

import (
	"fmt"
	"sort"
)

// Graph is a sparse undirected simple graph over vertices 0..N-1.
// The zero value is an empty graph; use New to preallocate vertices.
type Graph struct {
	adj   [][]int32
	edges int
	names []string
	// sorted tracks whether each adjacency list is sorted ascending,
	// which HasEdge relies on. AddEdge keeps lists sorted.
}

// New returns a graph with n isolated vertices.
func New(n int) *Graph {
	return &Graph{adj: make([][]int32, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// AddVertex appends a new isolated vertex and returns its id.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	if g.names != nil {
		g.names = append(g.names, "")
	}
	return len(g.adj) - 1
}

// SetName associates a display name (e.g. a protein identifier) with vertex v.
func (g *Graph) SetName(v int, name string) {
	if g.names == nil {
		g.names = make([]string, len(g.adj))
	}
	g.names[v] = name
}

// Name returns the display name of vertex v, or "v<i>" if none was set.
func (g *Graph) Name(v int) string {
	if g.names != nil && g.names[v] != "" {
		return g.names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// insertSorted inserts x into s keeping ascending order; returns false if x
// was already present.
func insertSorted(s []int32, x int32) ([]int32, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i < len(s) && s[i] == x {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s, true
}

// AddEdge adds the undirected edge {u, v}. Self-loops and duplicate edges are
// ignored. It reports whether a new edge was added.
func (g *Graph) AddEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	var ok bool
	if g.adj[u], ok = insertSorted(g.adj[u], int32(v)); !ok {
		return false
	}
	g.adj[v], _ = insertSorted(g.adj[v], int32(u))
	g.edges++
	return true
}

// RemoveEdge removes the undirected edge {u, v} if present and reports
// whether an edge was removed.
func (g *Graph) RemoveEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	if !removeSorted(&g.adj[u], int32(v)) {
		return false
	}
	removeSorted(&g.adj[v], int32(u))
	g.edges--
	return true
}

func removeSorted(s *[]int32, x int32) bool {
	t := *s
	i := sort.Search(len(t), func(i int) bool { return t[i] >= x })
	if i >= len(t) || t[i] != x {
		return false
	}
	*s = append(t[:i], t[i+1:]...)
	return true
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	s := g.adj[u]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= int32(v) })
	return i < len(s) && s[i] == int32(v)
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted neighbor list of v. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// Edges appends every edge (u < v) to dst and returns it.
func (g *Graph) Edges(dst [][2]int32) [][2]int32 {
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if int32(u) < v {
				dst = append(dst, [2]int32{int32(u), v})
			}
		}
	}
	return dst
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int32, len(g.adj)), edges: g.edges}
	for i, a := range g.adj {
		c.adj[i] = append([]int32(nil), a...)
	}
	if g.names != nil {
		c.names = append([]string(nil), g.names...)
	}
	return c
}

// Induced returns the dense induced subgraph on the given vertices, in the
// given vertex order. It panics if len(vs) exceeds MaxDense.
//
// lamovet:keep builds subgraphs in internal/motif's reference census and brute-force tests (esu_ref_test.go, motif_test.go) and in TestInduced
func (g *Graph) Induced(vs []int32) *Dense {
	d := NewDense(len(vs))
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if g.HasEdge(int(vs[i]), int(vs[j])) {
				d.AddEdge(i, j)
			}
		}
	}
	return d
}
