package graph

import (
	"math/bits"
)

// canonExactMax is the largest vertex count for which canonRows computes
// an exact canonical form by (pruned) permutation search. Above this size,
// pattern classes are resolved by invariant hashing plus explicit
// isomorphism checks (see Classifier).
const canonExactMax = 8

// wlColors fills out with per-vertex colors from iterated Weisfeiler-Leman
// style refinement: an isomorphism-invariant vertex signature. It is the
// hottest function in meso-scale mining, so it works entirely in stack and
// caller-provided buffers and performs no allocation.
//
// alloc-budget: 0
func wlColors(d *Dense, out *[MaxDense]uint64) {
	var curArr, nextArr, neighArr [MaxDense]uint64
	n := d.n
	cur, next := curArr[:n], nextArr[:n]
	for v := 0; v < n; v++ {
		cur[v] = uint64(bits.OnesCount32(d.rows[v]))
	}
	for round := 0; round < 3; round++ {
		for v := 0; v < n; v++ {
			neigh := neighArr[:0]
			for m := d.rows[v]; m != 0; m &= m - 1 {
				neigh = append(neigh, cur[bits.TrailingZeros32(m)])
			}
			sortUint64(neigh)
			h := cur[v]*0x9e3779b97f4a7c15 + 0x517cc1b727220a95
			for _, c := range neigh {
				h = (h ^ c) * 0x100000001b3
			}
			next[v] = h
		}
		cur, next = next, cur
	}
	copy(out[:n], cur)
}

// sortUint64 sorts a short slice in place (insertion sort; motif patterns
// have at most MaxDense entries).
func sortUint64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Invariant returns an isomorphism-invariant hash of d. Two isomorphic
// graphs always share an invariant; two graphs with the same invariant are
// usually, but not necessarily, isomorphic.
//
// alloc-budget: 0
func Invariant(d *Dense) uint64 {
	var colArr [MaxDense]uint64
	wlColors(d, &colArr)
	cols := colArr[:d.n]
	sortUint64(cols)
	h := uint64(d.n)*0x9e3779b97f4a7c15 + uint64(d.M())
	for _, c := range cols {
		h = (h ^ c) * 0x100000001b3
	}
	return h
}

// canonState is the stack-resident state of the canonical permutation
// search. Everything is fixed-size arrays and bitmasks so a search performs
// zero heap allocations — it runs once per classifier miss, which under
// meso-scale mining is once per distinct labeled shape.
type canonState struct {
	d        *Dense
	n        int
	vorder   [canonExactMax]int // vertices sorted by (cell size, color, id)
	runEnd   [canonExactMax]int // end of the color run containing position i
	runStart [canonExactMax]int
	perm     [canonExactMax]int
	curRows  [canonExactMax]uint32
	bestRows [canonExactMax]uint32
	used     uint32 // vertex bitmask
	haveBest bool
}

// canonRows computes the canonical form of d (n <= canonExactMax) into
// rows: the lexicographically minimal sequence of lower-triangle adjacency
// rows over all permutations compatible with the invariant color classes.
// rows[pos] holds the adjacency bits of the vertex placed at pos toward
// positions 0..pos-1.
func canonRows(d *Dense, rows *[canonExactMax]uint32) {
	n := d.n
	var colArr [MaxDense]uint64
	wlColors(d, &colArr)
	cols := colArr[:n]

	// Group vertices into cells: vertices sharing a color are
	// interchangeable candidates for the same canonical positions. Cells
	// are ordered by (size, color); within a cell, ascending vertex id.
	var st canonState
	st.d, st.n = d, n
	var size [canonExactMax]int
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if cols[u] == cols[v] {
				size[v]++
			}
		}
		st.vorder[v] = v
	}
	vless := func(a, b int) bool {
		if size[a] != size[b] {
			return size[a] < size[b]
		}
		if cols[a] != cols[b] {
			return cols[a] < cols[b]
		}
		return a < b
	}
	vo := st.vorder[:n]
	for i := 1; i < n; i++ {
		for j := i; j > 0 && vless(vo[j], vo[j-1]); j-- {
			vo[j], vo[j-1] = vo[j-1], vo[j]
		}
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && cols[vo[hi]] == cols[vo[lo]] {
			hi++
		}
		for i := lo; i < hi; i++ {
			st.runStart[i], st.runEnd[i] = lo, hi
		}
		lo = hi
	}

	st.rec(0, true)
	*rows = st.bestRows
}

func (st *canonState) rec(pos int, tight bool) {
	if pos == st.n {
		if !st.haveBest {
			st.bestRows = st.curRows
			st.haveBest = true
		} else if lexLess(st.curRows[:st.n], st.bestRows[:st.n]) {
			st.bestRows = st.curRows
		}
		return
	}
	for i := st.runStart[pos]; i < st.runEnd[pos]; i++ {
		v := st.vorder[i]
		if st.used&(1<<uint(v)) != 0 {
			continue
		}
		var row uint32
		for p := 0; p < pos; p++ {
			if st.d.HasEdge(v, st.perm[p]) {
				row |= 1 << uint(p)
			}
		}
		nt := tight
		if st.haveBest && tight {
			if row > st.bestRows[pos] {
				continue // lexicographically worse; prune
			}
			nt = row == st.bestRows[pos]
		}
		st.perm[pos] = v
		st.used |= 1 << uint(v)
		st.curRows[pos] = row
		st.rec(pos+1, nt)
		st.used &^= 1 << uint(v)
	}
}

// canonCode packs a canonical row sequence into one comparable word:
// position rows in the low seven bytes (row 0 is always empty), the vertex
// count in the top byte. For n <= canonExactMax = 8 every row fits its
// byte, so the packing is injective — equal codes mean isomorphic graphs.
//
// alloc-budget: 0
func canonCode(n int, rows *[canonExactMax]uint32) uint64 {
	code := uint64(n) << 56
	for i := 1; i < n; i++ {
		code |= uint64(rows[i]) << (8 * (i - 1))
	}
	return code
}

// lexLess reports whether row sequence a is lexicographically smaller than b.
func lexLess(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Classifier interns dense graphs into isomorphism classes. It is the
// mechanism the motif miner uses to group subgraph occurrences by pattern,
// combining exact canonical keys (small graphs) with invariant buckets
// resolved by the isomorphism search (meso-scale graphs).
type Classifier struct {
	byRaw  map[string]int   // raw (uncanonicalized) adjacency bits -> class id
	byKey  map[uint64]int   // packed canonical code -> class id (n <= canonExactMax)
	byInv  map[uint64][]int // invariant -> candidate class ids (n > canonExactMax)
	reps   []*Dense         // class id -> representative
	occMap map[string][]int // raw adjacency bits -> rep-order mapping (see OccMapping)
	keyBuf []byte           // scratch for raw-bits lookups (no alloc on hits)
}

// NewClassifier returns an empty classifier.
func NewClassifier() *Classifier {
	return &Classifier{byRaw: map[string]int{}, byKey: map[uint64]int{}, byInv: map[uint64][]int{}}
}

// NumClasses returns the number of distinct isomorphism classes seen.
func (c *Classifier) NumClasses() int { return len(c.reps) }

// Rep returns the representative graph of class id.
func (c *Classifier) Rep(id int) *Dense { return c.reps[id] }

// Classify returns the isomorphism class id of d, allocating a new class if
// d is not isomorphic to any previously classified graph.
//
// Identical raw adjacency matrices (same vertex labeling, not merely
// isomorphic) are resolved through a first-level cache: subgraph
// enumeration presents the same few labeled shapes over and over, and the
// raw-bits lookup skips the canonical search entirely on those hits. The
// cache is an implementation detail — it cannot change any class id, only
// the cost of computing it.
// The raw key is built in a reused scratch buffer: the map lookup through
// string(buf) compiles to an alloc-free probe, so steady-state hits cost
// zero allocations; only a first-seen labeled shape pays the string copy.
func (c *Classifier) Classify(d *Dense) int {
	c.keyBuf = d.AppendBits(c.keyBuf[:0])
	if id, ok := c.byRaw[string(c.keyBuf)]; ok {
		return id
	}
	id := c.classifySlow(d)
	c.byRaw[string(c.keyBuf)] = id
	return id
}

// OccMapping returns IsoMapping(c.Rep(id), d) for a graph d previously
// classified into class id, memoized by d's raw adjacency bits: identical
// labeled graphs always yield the identical mapping, and enumeration
// presents the same labeled shapes repeatedly. Callers must treat the
// returned slice as read-only.
// Like Classify, the raw-bits memo is probed through the scratch buffer, so
// repeat shapes — the overwhelmingly common case under enumeration — cost
// zero allocations.
func (c *Classifier) OccMapping(id int, d *Dense) []int {
	c.keyBuf = d.AppendBits(c.keyBuf[:0])
	if mp, ok := c.occMap[string(c.keyBuf)]; ok {
		return mp
	}
	mp := IsoMapping(c.reps[id], d)
	if c.occMap == nil {
		c.occMap = map[string][]int{}
	}
	c.occMap[string(c.keyBuf)] = mp
	return mp
}

// classifySlow is Classify without the raw-bits shortcut: canonical keys for
// small graphs, invariant buckets plus IsoMappingInto for meso-scale ones.
func (c *Classifier) classifySlow(d *Dense) int {
	if d.n <= canonExactMax {
		var rows [canonExactMax]uint32
		canonRows(d, &rows)
		k := canonCode(d.n, &rows)
		if id, ok := c.byKey[k]; ok {
			return id
		}
		id := len(c.reps)
		c.reps = append(c.reps, d.Clone())
		c.byKey[k] = id
		return id
	}
	inv := Invariant(d)
	var mapping [MaxDense]int
	for _, id := range c.byInv[inv] {
		if IsoMappingInto(c.reps[id], d, mapping[:]) {
			return id
		}
	}
	id := len(c.reps)
	c.reps = append(c.reps, d.Clone())
	c.byInv[inv] = append(c.byInv[inv], id)
	return id
}
