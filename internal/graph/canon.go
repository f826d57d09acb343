package graph

import (
	"math/bits"
)

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

// Classifier interns dense graphs into isomorphism classes. It is the
// mechanism the motif miner and the ESU census use to group subgraph
// occurrences by pattern: graphs are bucketed by Invariant, and a bucket's
// candidates are resolved by the package's one isomorphism search, at every
// size. Class ids are handed out in first-seen order, and a class's
// representative is the first graph classified into it.
type Classifier struct {
	byRaw  map[string]int   // raw (uncanonicalized) adjacency bits -> class id
	byInv  map[uint64][]int // invariant -> candidate class ids
	reps   []*Dense         // class id -> representative
	occMap map[string][]int // raw adjacency bits -> rep-order mapping (see OccMapping)
	keyBuf []byte           // scratch for raw-bits lookups (no alloc on hits)
}

// NewClassifier returns an empty classifier.
func NewClassifier() *Classifier {
	return &Classifier{byRaw: map[string]int{}, byInv: map[uint64][]int{}}
}

// Rep returns the representative graph of class id.
func (c *Classifier) Rep(id int) *Dense { return c.reps[id] }

// Classify returns the isomorphism class id of d, allocating a new class if
// d is not isomorphic to any previously classified graph.
//
// Identical raw adjacency matrices (same vertex labeling, not merely
// isomorphic) are resolved through a first-level cache: subgraph
// enumeration presents the same few labeled shapes over and over, and the
// raw-bits lookup skips the invariant and the isomorphism search entirely
// on those hits. The cache is an implementation detail — it cannot change
// any class id, only the cost of computing it.
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

// classifySlow is Classify without the raw-bits shortcut: d's invariant
// bucket, then IsoMappingInto from each representative in it, in id order.
// A graph no representative maps onto opens a new class.
func (c *Classifier) classifySlow(d *Dense) int {
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
