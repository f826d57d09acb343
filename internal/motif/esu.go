package motif

import (
	"math/bits"
	"sort"

	"lamofinder/internal/graph"
	"lamofinder/internal/par"
)

// EnumerateESU enumerates every connected vertex set of size k exactly once
// (Wernicke's ESU algorithm, the core of FANMOD) and calls visit with the
// sorted vertex set. The slice passed to visit is scratch reused across
// subgraphs: copy it if it must outlive the call. visit may return false to
// stop the enumeration early.
func EnumerateESU(g *graph.Graph, k int, visit func(vs []int32) bool) {
	if k <= 0 {
		return
	}
	csr, bits := graph.NewCSR(g), graph.NewAdjBits(g)
	enumerateESURange(newESUScratch(csr, bits, k), 0, g.N(), visit)
}

// enumerateESURange enumerates every connected k-set whose ESU root (the
// set's smallest vertex) lies in [lo, hi), in ascending root order. The
// union over a partition of [0, n) is exactly the full enumeration, which
// is what lets the census fan roots out to workers. It reports whether the
// enumeration ran to completion (visit never returned false).
//
// The ranges, candidate order, and visit order are identical to the
// original map-and-slice formulation (TestCensusESUMatchesReference pins
// this); only the memory behavior changed — extension sets live in the
// scratch arena, exclusive neighborhoods come from word-level bitset
// kernels, and the inner loops are allocation-free.
func enumerateESURange(s *esuScratch, lo, hi int, visit func(vs []int32) bool) bool {
	for v := lo; v < hi; v++ {
		if !s.enumerateRoot(int32(v), visit) {
			return false
		}
	}
	return true
}

// enumerateRoot enumerates every connected k-set rooted at v (v is the
// minimum vertex of each set).
func (s *esuScratch) enumerateRoot(v int32, visit func(vs []int32) bool) bool {
	if s.keep != nil && !s.keep(0) {
		return true
	}
	// Root extension set: neighbors of v greater than v, ascending.
	row := s.g.Neighbors(int(v))
	i := sort.Search(len(row), func(i int) bool { return row[i] > v })
	ext := row[i:]
	s.grow(len(ext))
	copy(s.ext, ext)
	s.top = len(ext)

	s.sub = append(s.sub[:0], v)
	// Depth-1 covered mask: the root and everything adjacent to it.
	cov := s.coveredAt(1)
	for i := range cov {
		cov[i] = 0
	}
	s.bits.OrRowInto(cov, int(v))
	return s.extend(0, s.top, visit)
}

// extend is the ESU recursion: consume the extension segment [extLo, extHi)
// of the arena back to front, building each child's extension segment at
// the arena top from the parent's remainder plus w's exclusive neighbors.
//
// The classic formulation re-checks each candidate against the subgraph,
// the extension set, and w; with the covered mask those checks collapse
// into one word-level and-not (see graph.AdjBits.ExclusiveInto) — an
// exclusive neighbor is never in the extension set, because every
// extension entry is adjacent to the current subgraph by construction.
func (s *esuScratch) extend(extLo, extHi int, visit func(vs []int32) bool) bool {
	if len(s.sub) == s.k {
		return visit(s.sortedSub())
	}
	depth := len(s.sub)
	root := int(s.sub[0])
	for extHi > extLo {
		w := s.ext[extHi-1]
		extHi--
		if s.keep != nil && !s.keep(depth) {
			continue
		}
		// Child extension = parent remainder + exclusive neighbors of w.
		cnt := s.bits.ExclusiveInto(s.cand, s.coveredAt(depth), int(w), root)
		childLo := s.top
		childHi := childLo + (extHi - extLo) + cnt
		s.grow(childHi)
		copy(s.ext[childLo:], s.ext[extLo:extHi])
		p := childLo + (extHi - extLo)
		for u := nextBit(s.cand, 0); u >= 0; u = nextBit(s.cand, u+1) {
			s.ext[p] = int32(u)
			p++
		}
		// Push w: stack the next covered mask and recurse.
		s.sub = append(s.sub, w)
		cov, next := s.coveredAt(depth), s.coveredAt(depth+1)
		copy(next, cov)
		s.bits.OrRowInto(next, int(w))
		s.top = childHi
		ok := s.extend(childLo, childHi, visit)
		s.top = childLo
		s.sub = s.sub[:depth]
		if !ok {
			return false
		}
	}
	return true
}

// nextBit returns the smallest set bit >= from in the word mask, or -1.
//
// alloc-budget: 0
func nextBit(words []uint64, from int) int {
	if from < 0 {
		from = 0
	}
	wi := from >> 6
	if wi >= len(words) {
		return -1
	}
	w := words[wi] >> uint(from&63) << uint(from&63)
	for {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
		wi++
		if wi >= len(words) {
			return -1
		}
		w = words[wi]
	}
}

// esuRootChunk is the fixed number of ESU roots per work chunk. Chunk
// boundaries depend only on the graph size — never on the worker count —
// so chunk-ordered merging yields the same census at any parallelism.
const esuRootChunk = 64

// chunkCensus is one root chunk's private census: a local classifier plus
// per-class frequencies and capped occurrence lists. The classifier assigns
// ids densely in first-seen order, so the motifs slice is both the by-class
// index and the enumeration order — no map, no separate order list.
type chunkCensus struct {
	cl     *graph.Classifier
	motifs []*Motif // indexed by class id
}

// CensusESU counts, per isomorphism class, the connected induced size-k
// subgraphs of g, returning class representatives with frequencies and up to
// maxOcc stored occurrences per class (0 = store all). This is the exact
// small-k counterpart of the meso-scale miner. Roots are processed on
// GOMAXPROCS workers; see CensusESUParallel.
func CensusESU(g *graph.Graph, k, maxOcc int) []*Motif {
	return CensusESUParallel(g, k, maxOcc, 0)
}

// CensusESUParallel is CensusESU with an explicit worker count
// (0 = runtime.GOMAXPROCS(0)). Root vertices are partitioned into
// fixed-size chunks enumerated concurrently, each into a private census;
// the per-chunk results then merge serially in chunk order. Because the
// chunking is worker-independent and the merge is ordered, the output —
// class order, frequencies, and the identity and order of stored
// occurrences — is the same at every parallelism level.
//
// The CSR and adjacency-bitmap views are built once and shared read-only
// by every chunk worker; each worker owns an esuScratch arena and a
// scratch Dense, so the per-subgraph loop allocates nothing.
func CensusESUParallel(g *graph.Graph, k, maxOcc, workers int) []*Motif {
	if k <= 0 {
		return nil
	}
	n := g.N()
	csr, bits := graph.NewCSR(g), graph.NewAdjBits(g)
	chunks := make([]*chunkCensus, par.NumChunks(n, esuRootChunk))
	par.Chunks(n, esuRootChunk, workers, func(c, lo, hi int) {
		cc := &chunkCensus{cl: graph.NewClassifier()}
		scratch := newESUScratch(csr, bits, k)
		var d graph.Dense
		var arena graph.OccArena
		enumerateESURange(scratch, lo, hi, func(vs []int32) bool {
			fillInduced(&d, bits, vs)
			id := cc.cl.Classify(&d)
			if id == len(cc.motifs) {
				cc.motifs = append(cc.motifs, &Motif{Pattern: cc.cl.Rep(id), Uniqueness: -1})
			}
			m := cc.motifs[id]
			m.Frequency++
			if maxOcc == 0 || len(m.Occurrences) < maxOcc {
				mp := cc.cl.OccMapping(id, &d)
				occ := arena.Take(vs)
				for i := range vs {
					occ[i] = vs[mp[i]]
				}
				m.Occurrences = append(m.Occurrences, occ)
			}
			return true
		})
		chunks[c] = cc
	})

	// Ordered merge: a global classifier assigns ids in chunk-then-first-seen
	// order (= enumeration order), and each local occurrence list is
	// translated from the local representative's vertex order to the global
	// one before concatenation.
	cl := graph.NewClassifier()
	var byClass []*Motif // indexed by global class id, in first-seen order
	for _, cc := range chunks {
		for _, lm := range cc.motifs {
			gid := cl.Classify(lm.Pattern)
			if gid == len(byClass) {
				byClass = append(byClass, &Motif{Pattern: cl.Rep(gid), Uniqueness: -1})
			}
			gm := byClass[gid]
			gm.Frequency += lm.Frequency
			if len(lm.Occurrences) == 0 || (maxOcc != 0 && len(gm.Occurrences) >= maxOcc) {
				continue
			}
			remap := graph.IsoMapping(gm.Pattern, lm.Pattern)
			for _, occ := range lm.Occurrences {
				if maxOcc != 0 && len(gm.Occurrences) >= maxOcc {
					break
				}
				no := make([]int32, len(occ))
				for i := range no {
					no[i] = occ[remap[i]]
				}
				gm.Occurrences = append(gm.Occurrences, no)
			}
		}
	}
	out := append([]*Motif(nil), byClass...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Frequency > out[j].Frequency })
	return out
}

func contains(s []int32, x int32) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
