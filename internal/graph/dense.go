package graph

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxDense is the maximum vertex count of a Dense graph. Motif patterns in
// the paper top out at 20 vertices, comfortably inside this bound.
const MaxDense = 32

// Dense is a small undirected simple graph stored as a bit adjacency matrix,
// used for motif patterns (n <= MaxDense).
type Dense struct {
	n    int
	rows [MaxDense]uint32
}

// NewDense returns an empty dense graph with n vertices.
//
// invariant: 0 <= n <= MaxDense — the bit-matrix representation cannot hold
// more vertices; an out-of-range size is a programmer error, like a
// negative make() length.
func NewDense(n int) *Dense {
	if n < 0 || n > MaxDense {
		panic(fmt.Sprintf("graph: dense graph size %d out of range [0,%d]", n, MaxDense))
	}
	return &Dense{n: n}
}

// N returns the number of vertices.
func (d *Dense) N() int { return d.n }

// Reset clears d back to n isolated vertices in place, letting enumeration
// loops reuse one Dense as scratch instead of allocating per subgraph.
//
// invariant: 0 <= n <= MaxDense — same bound as NewDense.
func (d *Dense) Reset(n int) {
	if n < 0 || n > MaxDense {
		panic(fmt.Sprintf("graph: dense graph size %d out of range [0,%d]", n, MaxDense))
	}
	for i := 0; i < d.n; i++ {
		d.rows[i] = 0
	}
	d.n = n
}

// M returns the number of edges.
func (d *Dense) M() int {
	m := 0
	for i := 0; i < d.n; i++ {
		m += bits.OnesCount32(d.rows[i])
	}
	return m / 2
}

// AddEdge adds the undirected edge {u, v}; self-loops are ignored.
func (d *Dense) AddEdge(u, v int) {
	if u == v {
		return
	}
	d.rows[u] |= 1 << uint(v)
	d.rows[v] |= 1 << uint(u)
}

// HasEdge reports whether the edge {u, v} exists.
func (d *Dense) HasEdge(u, v int) bool {
	return d.rows[u]&(1<<uint(v)) != 0
}

// Degree returns the degree of vertex v.
func (d *Dense) Degree(v int) int { return bits.OnesCount32(d.rows[v]) }

// Connected reports whether the graph is connected (true for n <= 1).
//
// lamovet:keep checks patterns in tests of internal/graph, internal/motif (motif_test.go), internal/dimotif and the facade (lamofinder_test.go)
func (d *Dense) Connected() bool {
	if d.n <= 1 {
		return true
	}
	var seen uint32 = 1
	frontier := uint32(1)
	for frontier != 0 {
		var next uint32
		for f := frontier; f != 0; {
			v := bits.TrailingZeros32(f)
			f &= f - 1
			next |= d.rows[v]
		}
		frontier = next &^ seen
		seen |= frontier
	}
	return seen == (uint32(1)<<uint(d.n))-1
}

// Clone returns a copy of d.
func (d *Dense) Clone() *Dense {
	c := *d
	return &c
}

// String renders the edge list, e.g. "5:[0-1 1-2 2-3 3-4 4-0]".
func (d *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:[", d.n)
	first := true
	for i := 0; i < d.n; i++ {
		for j := i + 1; j < d.n; j++ {
			if d.HasEdge(i, j) {
				if !first {
					b.WriteByte(' ')
				}
				first = false
				fmt.Fprintf(&b, "%d-%d", i, j)
			}
		}
	}
	b.WriteByte(']')
	return b.String()
}

// AppendBits appends the raw adjacency-bits key of d to buf and returns the
// extended slice. Classifier lookups use it with a reused scratch buffer so
// the per-subgraph hot path performs zero allocations.
//
// alloc-budget: 0
func (d *Dense) AppendBits(buf []byte) []byte {
	buf = append(buf, byte(d.n))
	for i := 0; i < d.n; i++ {
		r := d.rows[i]
		buf = append(buf, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
	}
	return buf
}
