package cluster

import "math"

// Tree is a rooted binary tree produced by neighbor joining. Leaves are
// nodes 0..NumLeaves-1; internal nodes follow. The final join becomes the
// root.
type Tree struct {
	NumLeaves int
	Parent    []int   // -1 for the root
	Children  [][]int // empty for leaves
	Length    []float64
	Root      int
}

// NeighborJoining builds a BIONJ-style tree from the symmetric distance
// matrix d (PRODISTIN uses Czekanowski-Dice distances). It implements the
// classic NJ topology selection with BIONJ's variance-weighted distance
// update (Gascuel 1997); for n < 2 it returns a trivial tree.
func NeighborJoining(d [][]float64) *Tree {
	n := len(d)
	t := &Tree{NumLeaves: n}
	total := 2*n - 1
	if n == 0 {
		return t
	}
	if n == 1 {
		t.Parent = []int{-1}
		t.Children = [][]int{nil}
		t.Length = []float64{0}
		t.Root = 0
		return t
	}
	t.Parent = make([]int, total)
	t.Children = make([][]int, total)
	t.Length = make([]float64, total)
	for i := range t.Parent {
		t.Parent[i] = -1
	}

	// Working copies; active holds current cluster node ids.
	dist := make([][]float64, total)
	vari := make([][]float64, total)
	for i := 0; i < total; i++ {
		dist[i] = make([]float64, total)
		vari[i] = make([]float64, total)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dist[i][j] = d[i][j]
			vari[i][j] = d[i][j]
		}
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	next := n
	for len(active) > 2 {
		m := len(active)
		// Row sums.
		r := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				r[i] += dist[active[i]][active[j]]
			}
		}
		// Pick the pair minimizing the Q criterion; break ties toward the
		// smaller raw distance (keeps zero-distance groups together when
		// the matrix is degenerate).
		bi, bj := 0, 1
		best := math.Inf(1)
		bestD := math.Inf(1)
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				d := dist[active[i]][active[j]]
				q := float64(m-2)*d - r[i] - r[j]
				if q < best-1e-12 || (q < best+1e-12 && d < bestD) {
					best, bestD, bi, bj = q, d, i, j
				}
			}
		}
		a, b := active[bi], active[bj]
		dab := dist[a][b]
		// Branch lengths.
		la := 0.5*dab + (r[bi]-r[bj])/(2*float64(m-2))
		lb := dab - la
		if la < 0 {
			la, lb = 0, dab
		}
		if lb < 0 {
			lb, la = 0, dab
		}
		u := next
		next++
		t.Children[u] = []int{a, b}
		t.Parent[a], t.Parent[b] = u, u
		t.Length[a], t.Length[b] = la, lb
		// BIONJ lambda from variances.
		lambda := 0.5
		var sum float64
		for i := 0; i < m; i++ {
			c := active[i]
			if c == a || c == b {
				continue
			}
			sum += vari[b][c] - vari[a][c]
		}
		if m > 2 && dab > 0 {
			lambda = 0.5 + sum/(2*float64(m-2)*dab)
			if lambda < 0 {
				lambda = 0
			}
			if lambda > 1 {
				lambda = 1
			}
		}
		for i := 0; i < m; i++ {
			c := active[i]
			if c == a || c == b {
				continue
			}
			dist[u][c] = lambda*(dist[a][c]-la) + (1-lambda)*(dist[b][c]-lb)
			if dist[u][c] < 0 {
				dist[u][c] = 0
			}
			dist[c][u] = dist[u][c]
			vari[u][c] = lambda*vari[a][c] + (1-lambda)*vari[b][c] - lambda*(1-lambda)*vari[a][b]
			vari[c][u] = vari[u][c]
		}
		// Replace a,b with u in the active list.
		active[bj] = active[m-1]
		active = active[:m-1]
		active[bi] = u
	}
	// Join the final two under the root.
	a, b := active[0], active[1]
	root := next
	t.Children = append(t.Children[:root], t.Children[root:]...)
	t.Children[root] = []int{a, b}
	t.Parent[a], t.Parent[b] = root, root
	half := dist[a][b] / 2
	t.Length[a], t.Length[b] = half, half
	t.Root = root
	// Trim to used nodes.
	used := root + 1
	t.Parent = t.Parent[:used]
	t.Children = t.Children[:used]
	t.Length = t.Length[:used]
	return t
}

// NumNodes returns the total node count (leaves + internal).
func (t *Tree) NumNodes() int { return len(t.Parent) }
