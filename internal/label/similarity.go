// Package label implements LaMoFinder, the paper's core contribution:
// assigning GO labels to the vertices of network motifs so that the labeled
// subgraphs still occur frequently in the annotated PPI network. It covers
// GO-based vertex and occurrence similarity (Eqs. 1-3), symmetry-aware
// vertex pairing, agglomerative clustering of occurrences with least-general
// labeling schemes, and the border-informative-FC stopping rule
// (Algorithms 1-2).
package label

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"lamofinder/internal/cluster"
	"lamofinder/internal/graph"
	"lamofinder/internal/ontology"
)

// UnknownSim is the neutral similarity used when one of the two vertices has
// no GO annotation; the paper lets unannotated proteins join any cluster and
// take their labels from the annotated occurrences.
const UnknownSim = 0.5

// stShardCount is the number of lock shards in the term-similarity cache;
// a power of two so shard selection is a mask.
const stShardCount = 64

// stDenseMaxTerms bounds the term-space size for which the cache uses the
// dense atomic table (n^2 float64 slots); above it, memory would grow
// quadratically into real GO scale, so the sharded maps take over.
const stDenseMaxTerms = 1536

type stShard struct {
	mu sync.RWMutex
	m  map[uint64]float64
}

// stCache memoizes Lin term scores for concurrent similarity workers.
//
// Two layouts share the type. For small term spaces (synthetic branches,
// the worked example) a dense n*n table of atomic slots serves hits with a
// single load — no lock traffic on the hot path, which matters because the
// labeler queries the cache millions of times. Large term spaces fall back
// to maps behind sharded read-write locks. Either way, cached values are
// pure functions of the key, so a racing double-compute stores the same
// value twice and determinism is unaffected.
type stCache struct {
	dense  []atomic.Uint64 // nil => sharded maps; slot ta*denseN+tb
	denseN int
	shards [stShardCount]stShard
}

func newSTCache(numTerms int) *stCache {
	c := &stCache{}
	if numTerms > 0 && numTerms <= stDenseMaxTerms {
		c.dense = make([]atomic.Uint64, numTerms*numTerms)
		c.denseN = numTerms
		return c
	}
	for i := range c.shards {
		c.shards[i].m = map[uint64]float64{}
	}
	return c
}

// Dense slots hold math.Float64bits(v)+1 so that the zero value of a fresh
// slot is distinguishable from a cached 0.0 (whose bit pattern is 0).
func stEncode(v float64) uint64 { return math.Float64bits(v) + 1 }
func stDecode(b uint64) float64 { return math.Float64frombits(b - 1) }

func (c *stCache) shard(key uint64) *stShard {
	return &c.shards[(key*0x9e3779b97f4a7c15)>>58&(stShardCount-1)]
}

// get returns the cached value for the term pair (ta <= tb), computing and
// storing it via f on a miss.
func (c *stCache) get(ta, tb int, f func() float64) float64 {
	if c.dense != nil {
		slot := &c.dense[ta*c.denseN+tb]
		if b := slot.Load(); b != 0 {
			return stDecode(b)
		}
		v := f()
		slot.Store(stEncode(v))
		return v
	}
	key := uint64(ta)<<32 | uint64(uint32(tb))
	sh := c.shard(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	v = f()
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
	return v
}

// Sim computes GO-based similarities with memoized Lin term scores. It is
// safe for concurrent use: the memo table is sharded (see stCache), and the
// ontology and weights are read-only.
type Sim struct {
	o   *ontology.Ontology
	w   ontology.Weights
	lca *ontology.LCAIndex
	st  *stCache
}

// NewSim returns a similarity calculator over the given ontology/weights.
// It builds an LCA index once, so cache misses answer in O(1) on tree
// ontologies (and via short weight-sorted scans on DAGs) instead of
// walking ancestor bitsets per term pair; the stCache stays purely a
// fast-path memo in front of that.
func NewSim(o *ontology.Ontology, w ontology.Weights) *Sim {
	return &Sim{o: o, w: w, lca: ontology.NewLCAIndex(o, w), st: newSTCache(o.NumTerms())}
}

// Term returns the Lin similarity ST(ta, tb) (Eq. 1), memoized.
func (s *Sim) Term(ta, tb int) float64 {
	if ta > tb {
		ta, tb = tb, ta
	}
	return s.st.get(ta, tb, func() float64 { return s.lca.Lin(ta, tb) })
}

// Vertex returns SV(vi, vj) (Eq. 2) for two direct-annotation term sets:
// 1 - prod(1 - ST(ta, tb)) over all cross pairs. One good term match makes
// the vertices similar. Empty sets score UnknownSim.
func (s *Sim) Vertex(ta, tb []int32) float64 {
	if len(ta) == 0 || len(tb) == 0 {
		return UnknownSim
	}
	prod := 1.0
	for _, a := range ta {
		for _, b := range tb {
			prod *= 1 - s.Term(int(a), int(b))
			if prod == 0 {
				return 1
			}
		}
	}
	return 1 - prod
}

// Occurrence returns SO(oi, oj) (Eq. 3) between two labeled vertex
// sequences, plus the vertex pairing that achieves it: pairing[i] is the
// position in B matched to position i of A. labelsA and labelsB give the
// term set at each motif vertex position; sym carries the pattern's
// symmetry structure. When per-orbit assignment spans exactly the
// automorphism group, each orbit's optimal pairing is found by Hungarian
// assignment (the paper's max over pair(Ia, Ib)); otherwise the pairing
// ranges over explicit automorphisms so that occurrence correspondence
// remains a valid embedding.
//
// It scores the two lists through the core the labeler runs, over a table
// whose row i is labelsA[i] and whose column j is labelsB[j].
func (s *Sim) Occurrence(labelsA, labelsB [][]int32, sym *Symmetry) (so float64, pairing []int) {
	nv := len(labelsA)
	t := svTable{v: make([]float64, nv*nv), stride: nv}
	pos := make([]int32, nv)
	for i := range labelsA {
		pos[i] = int32(i)
		for j := range labelsB {
			t.v[i*nv+j] = s.Vertex(labelsA[i], labelsB[j])
		}
	}
	pairing = make([]int, nv)
	return t.occurrence(pos, pos, sym, pairing, newSOScratch()), pairing
}

// svTable holds SV (Eq. 2) between numbered label sets, in both orders:
// entry a*stride+b is Vertex(set a, set b). Vertex multiplies its factors
// in the order of its arguments, so the two orders can differ in the last
// bit, and the table keeps both.
type svTable struct {
	v      []float64
	stride int
}

// at returns Vertex(set a, set b).
//
// alloc-budget: 0
func (t *svTable) at(a, b int32) float64 { return t.v[int(a)*t.stride+int(b)] }

// soScratch is the fixed working set of one SO evaluation. Patterns are
// Dense or DiDense graphs, so graph.MaxDense bounds every orbit and every
// pairing: the block holds one orbit's vertex similarities.
type soScratch struct {
	sv      [graph.MaxDense * graph.MaxDense]float64
	assign  [graph.MaxDense]int
	pairing [graph.MaxDense]int // for callers that discard the pairing
	hung    *cluster.AssignScratch
}

// newSOScratch returns an SO scratch sized for any pattern.
func newSOScratch() *soScratch {
	return &soScratch{hung: cluster.NewAssignScratch(graph.MaxDense)}
}

// occurrence is the one SO core: it returns SO between the occurrences
// whose vertex v carries the sets numbered ia[v] and ib[v] in t, writes
// the pairing into pairing[:len(ia)] and works in sc. It only reads t, so
// any number of evaluations may share a table.
//
// alloc-budget: 0
func (t *svTable) occurrence(ia, ib []int32, sym *Symmetry, pairing []int, sc *soScratch) float64 {
	nv := len(ia)
	if sym.ExactOrbitPairing() {
		total := 0.0
		for _, orb := range sym.Orbits {
			k := len(orb)
			if k == 1 {
				v := orb[0]
				pairing[v] = v
				total += t.at(ia[v], ib[v])
				continue
			}
			score := sc.sv[:k*k]
			for i, va := range orb {
				for j, vb := range orb {
					score[i*k+j] = t.at(ia[va], ib[vb])
				}
			}
			assign := sc.assign[:k]
			sum := cluster.MaxAssignmentInto(score, k, assign, sc.hung)
			for i, va := range orb {
				pairing[va] = orb[assign[i]]
			}
			total += sum
		}
		return total / float64(nv)
	}
	// Automorphism search: score each permutation.
	best := -1.0
	var bestPerm []int
	for _, perm := range sym.Auts {
		total := 0.0
		for v, w := range perm[:nv] {
			total += t.at(ia[v], ib[w])
		}
		if total > best {
			best = total
			bestPerm = perm
		}
	}
	copy(pairing, bestPerm)
	return best / float64(nv)
}

// setTable numbers the label sets of one LabelOccurrences call by their
// exact term sequence and keeps SV between every ordered pair of them,
// with the scratch that the call's SO evaluations work in. One call, on
// one goroutine, owns it.
type setTable struct {
	svTable
	sc   *soScratch
	sim  *Sim
	ids  map[string]int32
	sets [][]int32
	key  []byte
}

// setTables recycles tables across calls: a table's SV block reaches a few
// hundred KB, and a build labels hundreds of motifs.
var setTables = sync.Pool{New: func() any { return &setTable{sc: newSOScratch(), ids: map[string]int32{}} }}

// newSetTable returns an empty table scoring through sim. A recycled
// table keeps its old SV entries: intern writes every entry between a new
// set and the sets before it, so no entry is read before it is written.
func newSetTable(sim *Sim) *setTable {
	st := setTables.Get().(*setTable)
	st.sim = sim
	return st
}

// release empties st and returns it to the pool.
func (st *setTable) release() {
	clear(st.ids)
	clear(st.sets)
	st.sets, st.sim = st.sets[:0], nil
	setTables.Put(st)
}

// intern returns the number of the set ts. A new set is scored against
// every set held and itself, in both orders; ts must not change after.
func (st *setTable) intern(ts []int32) int32 {
	st.key = st.key[:0]
	for _, t := range ts {
		st.key = binary.LittleEndian.AppendUint32(st.key, uint32(t))
	}
	if id, ok := st.ids[string(st.key)]; ok {
		return id
	}
	id := int32(len(st.sets))
	st.ids[string(st.key)] = id
	st.sets = append(st.sets, ts)
	if len(st.sets) > st.stride {
		st.grow(max(2*st.stride, 16))
	}
	for a, other := range st.sets {
		st.v[a*st.stride+int(id)] = st.sim.Vertex(other, ts)
		st.v[int(id)*st.stride+a] = st.sim.Vertex(ts, other)
	}
	return id
}

// grow moves the table to a stride of n, keeping every entry.
func (st *setTable) grow(n int) {
	v := make([]float64, n*n)
	for a := 0; a < st.stride; a++ {
		copy(v[a*n:a*n+st.stride], st.v[a*st.stride:(a+1)*st.stride])
	}
	st.v, st.stride = v, n
}
