package motif

import (
	"math/rand"
	"slices"
	"sort"

	"lamofinder/internal/graph"
	"lamofinder/internal/par"
)

// Config controls the meso-scale miner.
type Config struct {
	// MinSize and MaxSize bound the pattern sizes reported (inclusive).
	// NeMoFinder-style runs use 3..20.
	MinSize, MaxSize int
	// MinFreq is the frequency threshold: patterns with fewer distinct
	// vertex sets are pruned (the paper uses 100 on the BIND network).
	MinFreq int
	// BeamWidth caps the number of pattern classes carried to the next
	// level (highest frequency first). 0 means no cap. NeMoFinder prunes by
	// repeated trees; we prune by beam, an approximation documented in
	// DESIGN.md.
	BeamWidth int
	// MaxOccPerClass caps the stored (and grown) occurrence list per class
	// by reservoir sampling. 0 means unlimited. Capping bounds memory and
	// time at meso-scale; because levels grow only from stored occurrences,
	// deeper levels' frequencies become lower bounds under a cap.
	MaxOccPerClass int
	// DenseBeamFraction is the share of beam slots reserved for the densest
	// (most-edge) classes rather than the most frequent. Density is a cheap
	// proxy for over-representation: at meso-scale, pure frequency floods
	// the beam with generic tree-like shapes while complex-like motifs
	// starve. 0 selects purely by frequency; 0.5 is a good meso-scale
	// setting.
	DenseBeamFraction float64
	// Seed drives occurrence subsampling when lists overflow.
	Seed int64
}

// DefaultConfig mirrors the paper's mining setup at a laptop-friendly scale.
func DefaultConfig() Config {
	return Config{
		MinSize:           3,
		MaxSize:           20,
		MinFreq:           100,
		BeamWidth:         60,
		MaxOccPerClass:    400,
		DenseBeamFraction: 0.5,
		Seed:              1,
	}
}

// classState is a pattern class being grown at the current level.
type classState struct {
	pattern *graph.Dense
	str     string    // pattern.String(), cached for the selection sorts
	occs    [][]int32 // pattern-ordered occurrences
	freq    int       // distinct vertex sets seen (may exceed len(occs))
	refs    []occRef  // the stored candidates, slot order, until materialized
}

// patStr returns the cached pattern edge-list string, used as the final
// tiebreak of the beam-selection sorts. Distinct classes have distinct
// representative labelings, hence distinct strings, so the comparators are
// total orders; caching keeps String() out of the O(n log n) comparison
// path.
func (cs *classState) patStr() string {
	if cs.str == "" {
		cs.str = cs.pattern.String()
	}
	return cs.str
}

// parentChunk is the fixed number of parent occurrences per work chunk.
// Chunk boundaries depend only on the level's parent count, never on the
// worker count.
const parentChunk = 256

// Find mines frequent connected patterns of g level-by-level: every class's
// occurrences are extended by one adjacent vertex, regrouped by isomorphism
// class, pruned by MinFreq, and capped by BeamWidth. It returns all classes
// in [MinSize, MaxSize] meeting MinFreq, smallest size first, most frequent
// first within a size. Uniqueness is left at -1; see ScoreUniqueness.
//
// A level runs in three phases on GOMAXPROCS workers:
//
//   - Extend: the stored occurrences of the previous level (the parents,
//     numbered in class order, then slot order) run in fixed-size chunks.
//     Each candidate vertex set is decided new or not from the parent
//     index alone (see parentIndex.reachedBefore), so no set of seen
//     candidates is shared, and each new one is classified by the chunk
//     worker's own classifier.
//   - Merge: one serial pass over the chunks in order visits the new
//     candidates in discovery order. It assigns global class ids and
//     representatives in first-seen order, counts frequencies, and replays
//     the single reservoir RNG, storing candidate references in the slots.
//   - Materialize: after beam selection, the kept classes' slots become
//     pattern-ordered occurrences, one class per task.
//
// The output equals that of the serial miner with a global candidate set
// at any worker count: same classes, representatives and frequencies, and
// the same stored occurrences in the same order. See DESIGN.md §13.
func Find(g *graph.Graph, cfg Config) []*Motif {
	if cfg.MinSize < 2 {
		cfg.MinSize = 2
	}
	if cfg.MaxSize < cfg.MinSize {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Level 2: the single-edge class.
	var arena graph.OccArena
	edgeClass := &classState{pattern: edgePattern()}
	var ebuf [2]int32
	for _, e := range g.Edges(nil) {
		ebuf[0], ebuf[1] = e[0], e[1]
		edgeClass.occs = append(edgeClass.occs, arena.Take(ebuf[:]))
	}
	edgeClass.freq = len(edgeClass.occs)
	level := []*classState{edgeClass}
	subsample(edgeClass, cfg.MaxOccPerClass, rng)

	var out []*Motif
	emit := func(cs *classState, size int) {
		if size >= cfg.MinSize && cs.freq >= cfg.MinFreq {
			out = append(out, &Motif{
				Pattern:     cs.pattern,
				Occurrences: cs.occs,
				Frequency:   cs.freq,
				Uniqueness:  -1,
			})
		}
	}
	if cfg.MinSize <= 2 && edgeClass.freq >= cfg.MinFreq {
		emit(edgeClass, 2)
	}

	m := newMiner(g, cfg, rng)
	for size := 3; size <= cfg.MaxSize && len(level) > 0; size++ {
		level = m.grow(level, size)
		for _, ns := range level {
			emit(ns, size)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Size() != out[j].Size() {
			return out[i].Size() < out[j].Size()
		}
		return out[i].Frequency > out[j].Frequency
	})
	return out
}

// miner is the state Find carries across levels: the graph views, the
// one reservoir RNG, the parent index, and the fixed free list of
// per-worker scratch. par runs at most workers tasks at once, so a take
// from free never blocks, and every scratch is reused for the whole run.
type miner struct {
	g       *graph.Graph
	bits    *graph.AdjBits
	cfg     Config
	rng     *rand.Rand
	workers int
	scratch []*minerScratch
	free    chan *minerScratch
	px      parentIndex
}

// newMiner prepares the views and one scratch per worker for mining g.
func newMiner(g *graph.Graph, cfg Config, rng *rand.Rand) *miner {
	// The adjacency bit matrix answers the edge tests of induced-subgraph
	// construction, the hottest inner loop at meso-scale, in O(1).
	m := &miner{g: g, bits: graph.NewAdjBits(g), cfg: cfg, rng: rng, workers: par.Workers(0)}
	m.scratch = make([]*minerScratch, m.workers)
	m.free = make(chan *minerScratch, m.workers)
	for i := range m.scratch {
		m.scratch[i] = &minerScratch{vs: make([]int32, cfg.MaxSize)}
		m.free <- m.scratch[i]
	}
	return m
}

// grow mines the size-vertex level from the previous level's classes and
// returns the classes the beam keeps, occurrences materialized.
func (m *miner) grow(level []*classState, size int) []*classState {
	m.px.reset(level, size-1)
	for _, sc := range m.scratch {
		sc.cl = graph.NewClassifier()
		sc.cands = sc.cands[:0]
	}
	spans := make([]chunkSpan, par.NumChunks(m.px.n(), parentChunk))
	par.Chunks(m.px.n(), parentChunk, m.workers, func(c, lo, hi int) {
		sc := <-m.free
		from := len(sc.cands)
		sc.extend(m.g, m.bits, &m.px, lo, hi)
		spans[c] = chunkSpan{sc: sc, lo: from, hi: len(sc.cands)}
		m.free <- sc
	})
	kept := selectBeam(m.merge(spans), m.cfg)
	par.Do(len(kept), m.workers, func(i int) {
		sc := <-m.free
		sc.materialize(m.bits, &m.px, kept[i])
		m.free <- sc
	})
	return kept
}

// merge walks the chunks' new candidates in discovery order and returns
// the level's classes, indexed by global id (dense, first-seen order),
// with frequencies and reservoir slots. A worker class is one isomorphism
// class, so the first candidate of each worker class (in chunk order) is
// classified globally; the global first candidate of a class is always
// such a candidate, which makes it the representative.
func (m *miner) merge(spans []chunkSpan) []*classState {
	for _, sc := range m.scratch {
		sc.gid = sc.gid[:0]
		for i := 0; i < sc.cl.NumClasses(); i++ {
			sc.gid = append(sc.gid, -1)
		}
	}
	cl := graph.NewClassifier()
	var next []*classState
	slots := m.cfg.MaxOccPerClass
	buf := m.scratch[0] // no chunk runs during the merge
	for _, sp := range spans {
		for _, c := range sp.sc.cands[sp.lo:sp.hi] {
			id := sp.sc.gid[c.class]
			if id < 0 {
				vs, _ := m.px.candidate(int(c.parent), c.w, buf.vs)
				fillInduced(&buf.d, m.bits, vs)
				id = int32(cl.Classify(&buf.d))
				if int(id) == len(next) {
					next = append(next, &classState{pattern: cl.Rep(int(id))})
				}
				sp.sc.gid[c.class] = id
			}
			ns := next[id]
			ns.freq++
			// Reservoir-sample the occurrence list so the kept
			// occurrences are an unbiased sample of all distinct vertex
			// sets, not just the first ones discovered.
			if slots == 0 || len(ns.refs) < slots {
				ns.refs = append(ns.refs, c.occRef)
			} else if r := m.rng.Intn(ns.freq); r < slots {
				ns.refs[r] = c.occRef
			}
		}
	}
	return next
}

// selectBeam prunes classes below MinFreq and selects the beam. Half the
// slots go to the most frequent classes, half to the densest (most edges):
// density is the best cheap proxy for over-representation, and pure
// frequency selection floods the beam with generic tree-like shapes at
// meso-scale while the complex-like motifs (the ones that survive the null
// model) starve. The kept classes come back most frequent first.
func selectBeam(next []*classState, cfg Config) []*classState {
	var kept []*classState
	for _, ns := range next {
		if ns.freq >= cfg.MinFreq {
			kept = append(kept, ns)
		}
	}
	byFreq := func(i, j int) bool {
		if kept[i].freq != kept[j].freq {
			return kept[i].freq > kept[j].freq
		}
		return kept[i].patStr() < kept[j].patStr()
	}
	sort.Slice(kept, byFreq)
	if cfg.BeamWidth > 0 && len(kept) > cfg.BeamWidth {
		half := cfg.BeamWidth - int(float64(cfg.BeamWidth)*cfg.DenseBeamFraction)
		selected := make([]*classState, 0, cfg.BeamWidth)
		selected = append(selected, kept[:half]...)
		// The density slots: rank the remaining classes by edge count
		// and fill the rest of the beam. kept[half:] is disjoint from
		// the frequency picks, so no membership check is needed.
		rest := append([]*classState(nil), kept[half:]...)
		sort.Slice(rest, func(i, j int) bool {
			mi, mj := rest[i].pattern.M(), rest[j].pattern.M()
			if mi != mj {
				return mi > mj
			}
			if rest[i].freq != rest[j].freq {
				return rest[i].freq > rest[j].freq
			}
			return rest[i].patStr() < rest[j].patStr()
		})
		if room := cfg.BeamWidth - len(selected); room < len(rest) {
			rest = rest[:room]
		}
		selected = append(selected, rest...)
		kept = selected
		sort.Slice(kept, byFreq)
	}
	return kept
}

// occRef names a candidate vertex set by the parent it was reached from and
// the vertex added to it.
type occRef struct {
	parent int32
	w      int32
}

// newCand is one new candidate of a chunk, with its class id in the chunk
// worker's classifier.
type newCand struct {
	occRef
	class int32
}

// chunkSpan locates one chunk's new candidates: sc.cands[lo:hi].
type chunkSpan struct {
	sc     *minerScratch
	lo, hi int
}

// minerScratch is one worker's state for a level: its classifier (a class
// there is an isomorphism class, whatever its id), the new candidates of
// every chunk it ran, in run order, and, during the merge, each of its
// classes' global id (-1 until seen). The induced-subgraph and vertex-set
// buffers and the occurrence arena are reused for the whole run.
type minerScratch struct {
	cl    *graph.Classifier
	cands []newCand
	gid   []int32
	d     graph.Dense
	vs    []int32
	arena graph.OccArena
}

// extend grows the parents [lo, hi) by one adjacent vertex each, in the
// serial miner's order (parent, then vertex in pattern order, then
// neighbour), and records every new candidate.
func (sc *minerScratch) extend(g *graph.Graph, bits *graph.AdjBits, px *parentIndex, lo, hi int) {
	for p := lo; p < hi; p++ {
		occ := px.occs[p]
		for i, v := range occ {
			for _, w := range g.Neighbors(int(v)) {
				// S = P ∪ {w} was reached before unless this is its first
				// vertex of P adjacent to w and no parent before P holds S
				// minus one of P's vertices.
				if contains(occ, w) || adjacentToAny(bits, occ[:i], w) {
					continue
				}
				vs, wpos := px.candidate(p, w, sc.vs)
				if px.reachedBefore(p, vs, wpos, px.hash[p]+vmix(w)) {
					continue
				}
				fillInduced(&sc.d, bits, vs)
				id := sc.cl.Classify(&sc.d)
				sc.cands = append(sc.cands, newCand{occRef: occRef{parent: int32(p), w: w}, class: int32(id)})
			}
		}
	}
}

// materialize turns ns's slots into occurrences in the representative's
// vertex order, carved from the scratch arena.
func (sc *minerScratch) materialize(bits *graph.AdjBits, px *parentIndex, ns *classState) {
	var mp [graph.MaxDense]int
	ns.occs = make([][]int32, len(ns.refs))
	for i, r := range ns.refs {
		vs, _ := px.candidate(int(r.parent), r.w, sc.vs)
		fillInduced(&sc.d, bits, vs)
		graph.IsoMappingInto(ns.pattern, &sc.d, mp[:])
		occ := sc.arena.Take(vs)
		for j := range vs {
			occ[j] = vs[mp[j]]
		}
		ns.occs[i] = occ
	}
	ns.refs = nil
}

// adjacentToAny reports whether w is adjacent to any vertex of vs.
//
// alloc-budget: 0
func adjacentToAny(bits *graph.AdjBits, vs []int32, w int32) bool {
	for _, u := range vs {
		if bits.Has(int(u), int(w)) {
			return true
		}
	}
	return false
}

// parentIndex holds one level's parents — the stored occurrences of the
// previous level, numbered in class order, then slot order — with each
// parent's sorted vertex set, and a hash table from vertex set to parent.
// Every parent holds a distinct vertex set. A set's hash is the sum of its
// vertices' vmix values, so the hash of a set with one vertex swapped is
// one subtraction and one addition away.
type parentIndex struct {
	k     int       // parent width
	occs  [][]int32 // pattern-ordered occurrence of each parent
	sets  []int32   // parent p's sorted vertex set at [p*k, (p+1)*k)
	hash  []uint64  // parent p's set hash
	slots []int32   // open addressing: parent + 1, 0 = empty
	mask  uint64
}

// n returns the number of parents.
func (px *parentIndex) n() int { return len(px.occs) }

// reset indexes the stored occurrences of level, each of width k.
func (px *parentIndex) reset(level []*classState, k int) {
	px.k = k
	px.occs = px.occs[:0]
	for _, cs := range level {
		px.occs = append(px.occs, cs.occs...)
	}
	n := len(px.occs)
	px.sets = slices.Grow(px.sets[:0], n*k)[:n*k]
	px.hash = slices.Grow(px.hash[:0], n)[:n]
	size := 2
	for size < 2*n {
		size <<= 1
	}
	px.slots = slices.Grow(px.slots[:0], size)[:size]
	clear(px.slots)
	px.mask = uint64(size - 1)
	for p, occ := range px.occs {
		set := px.sets[p*k : (p+1)*k]
		copy(set, occ)
		insertionSort32(set)
		var h uint64
		for _, v := range set {
			h += vmix(v)
		}
		px.hash[p] = h
		i := h & px.mask
		for px.slots[i] != 0 {
			i = (i + 1) & px.mask
		}
		px.slots[i] = int32(p + 1)
	}
}

// candidate writes parent p's vertex set with w inserted, sorted, into
// buf[:k+1] and returns it with w's position in it.
//
// alloc-budget: 0
func (px *parentIndex) candidate(p int, w int32, buf []int32) ([]int32, int) {
	set := px.sets[p*px.k : (p+1)*px.k]
	vs := buf[:px.k+1]
	pos := 0
	for pos < len(set) && set[pos] < w {
		vs[pos] = set[pos]
		pos++
	}
	vs[pos] = w
	copy(vs[pos+1:], set[pos:])
	return vs, pos
}

// reachedBefore reports whether the candidate vs = P ∪ {w} (sorted, w at
// wpos, set hash hs) of parent p is also the extension of a parent
// numbered before p, that is whether vs minus some vertex u of P is such a
// parent. S is connected, so every u has a neighbour in S ∖ {u}, and the
// serial miner reaches S from that parent first. A parent's own vertex set
// never repeats, so parents after p and P itself cannot match.
//
// alloc-budget: 0
func (px *parentIndex) reachedBefore(p int, vs []int32, wpos int, hs uint64) bool {
	for j, u := range vs {
		if j == wpos {
			continue
		}
		h := hs - vmix(u)
		for i := h & px.mask; ; i = (i + 1) & px.mask {
			q := int(px.slots[i]) - 1
			if q < 0 {
				break
			}
			if q < p && px.hash[q] == h && px.equalWithout(q, vs, j) {
				return true
			}
		}
	}
	return false
}

// equalWithout reports whether parent q's vertex set equals vs without its
// entry at skip.
//
// alloc-budget: 0
func (px *parentIndex) equalWithout(q int, vs []int32, skip int) bool {
	set := px.sets[q*px.k : (q+1)*px.k]
	t := 0
	for j, v := range vs {
		if j == skip {
			continue
		}
		if set[t] != v {
			return false
		}
		t++
	}
	return true
}

// vmix scrambles a vertex id (the splitmix64 finalizer); a vertex set's
// hash is the sum of its vertices' values.
//
// alloc-budget: 0
func vmix(v int32) uint64 {
	x := uint64(uint32(v)) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// subsample truncates the occurrence list to max items chosen uniformly.
func subsample(cs *classState, max int, rng *rand.Rand) {
	if max <= 0 || len(cs.occs) <= max {
		return
	}
	rng.Shuffle(len(cs.occs), func(i, j int) {
		cs.occs[i], cs.occs[j] = cs.occs[j], cs.occs[i]
	})
	cs.occs = cs.occs[:max]
}

func edgePattern() *graph.Dense {
	d := graph.NewDense(2)
	d.AddEdge(0, 1)
	return d
}
