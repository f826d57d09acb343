package graph

// CSR is a compressed-sparse-row view of a Graph's adjacency: one flat
// targets slice addressed through per-vertex offsets. The per-vertex slice
// headers of Graph.adj spread neighbor lists across the heap; the census
// and the beam miner walk every neighbor list of the network thousands of
// times per level, and the CSR layout turns that walk into a linear scan
// of two contiguous arrays. Built once per mining pass and shared
// read-only across worker goroutines.
type CSR struct {
	offsets []int32 // len n+1; neighbors of v are targets[offsets[v]:offsets[v+1]]
	targets []int32 // sorted within each row, matching Graph.Neighbors order
}

// NewCSR flattens g's adjacency into a CSR view. The view is a snapshot:
// later mutations of g are not reflected.
func NewCSR(g *Graph) *CSR {
	n := g.N()
	c := &CSR{
		offsets: make([]int32, n+1),
		targets: make([]int32, 0, 2*g.M()),
	}
	for v := 0; v < n; v++ {
		c.offsets[v] = int32(len(c.targets))
		c.targets = append(c.targets, g.Neighbors(v)...)
	}
	c.offsets[n] = int32(len(c.targets))
	return c
}

// Neighbors returns the sorted neighbor row of v as a subslice of the
// shared targets array. Callers must treat it as read-only.
//
// alloc-budget: 0
func (c *CSR) Neighbors(v int) []int32 {
	return c.targets[c.offsets[v]:c.offsets[v+1]]
}
