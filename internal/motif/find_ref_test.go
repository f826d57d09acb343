package motif

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"lamofinder/internal/graph"
	"lamofinder/internal/randnet"
)

// refFind is the serial level-wise miner with the global candidate set,
// kept verbatim (but for its name) as the oracle for Find: the parallel
// miner must reproduce its classes, representatives, frequencies and
// stored occurrences — identity and order — exactly, because they feed
// uniqueness scoring, labeling and the artifact digest. Its original
// documentation follows.
//
// refFind mines frequent connected patterns of g level-by-level: every class's
// occurrences are extended by one adjacent vertex, regrouped by isomorphism
// class, pruned by MinFreq, and capped by BeamWidth. It returns all classes
// in [MinSize, MaxSize] meeting MinFreq, smallest size first, most frequent
// first within a size. Uniqueness is left at -1; see ScoreUniqueness.
//
// The per-candidate loop is allocation-free in steady state: candidate
// vertex sets dedup through an epoch-stamped hash set, induced subgraphs
// fill a reused scratch Dense, classifier lookups probe through scratch
// buffers, and stored occurrences carve from a slab arena (reservoir
// replacement overwrites the evicted slot in place). See DESIGN.md §13.
func refFind(g *graph.Graph, cfg Config) []*Motif {
	if cfg.MinSize < 2 {
		cfg.MinSize = 2
	}
	if cfg.MaxSize < cfg.MinSize {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Adjacency bit matrix for O(1) edge tests during induced-subgraph
	// construction (the hottest inner loop at meso-scale).
	bits := graph.NewAdjBits(g)

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

	var seenSets graph.VSetDedup
	var d graph.Dense
	for size := 3; size <= cfg.MaxSize && len(level) > 0; size++ {
		cl := graph.NewClassifier()
		var next []*classState // indexed by class id (dense, first-seen order)
		seenSets.Reset(size)
		sortedOcc := make([]int32, 0, size)
		vsBuf := make([]int32, size)
		for _, cs := range level {
			for _, occ := range cs.occs {
				sortedOcc = append(sortedOcc[:0], occ...)
				insertionSort32(sortedOcc)
				for _, v := range occ {
					for _, w := range g.Neighbors(int(v)) {
						if contains(occ, w) {
							continue
						}
						// Build the sorted candidate set (sortedOcc with w
						// inserted) and dedup it by exact content.
						vs := vsBuf
						pos := 0
						for pos < len(sortedOcc) && sortedOcc[pos] < w {
							vs[pos] = sortedOcc[pos]
							pos++
						}
						vs[pos] = w
						copy(vs[pos+1:], sortedOcc[pos:])
						if !seenSets.Insert(vs) {
							continue
						}
						fillInduced(&d, bits, vs)
						id := cl.Classify(&d)
						if id == len(next) {
							next = append(next, &classState{pattern: cl.Rep(id)})
						}
						ns := next[id]
						ns.freq++
						// Reservoir-sample the occurrence list so the kept
						// occurrences are an unbiased sample of all distinct
						// vertex sets, not just the first ones discovered.
						// A replacement overwrites the evicted slot's slice
						// in place — same width, no allocation.
						var no []int32
						if cfg.MaxOccPerClass == 0 || len(ns.occs) < cfg.MaxOccPerClass {
							no = arena.Take(vs)
							ns.occs = append(ns.occs, no)
						} else if r := rng.Intn(ns.freq); r < cfg.MaxOccPerClass {
							no = ns.occs[r]
						}
						if no != nil {
							mp := cl.OccMapping(id, &d)
							for i := range vs {
								no[i] = vs[mp[i]]
							}
						}
					}
				}
			}
		}
		// Prune and select the beam. Half the slots go to the most frequent
		// classes, half to the densest (most edges): density is the best
		// cheap proxy for over-representation, and pure frequency selection
		// floods the beam with generic tree-like shapes at meso-scale while
		// the complex-like motifs (the ones that survive the null model)
		// starve.
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
		for _, ns := range kept {
			emit(ns, size)
		}
		level = kept
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Size() != out[j].Size() {
			return out[i].Size() < out[j].Size()
		}
		return out[i].Frequency > out[j].Frequency
	})
	return out
}

// TestFindMatchesReference runs Find and refFind over random BA and ER
// graphs and requires identical output: pattern strings, frequencies, and
// occurrence lists element for element. The configurations fire the
// reservoir (MaxOccPerClass 7, 40, 200), the beam and its density slots,
// and reach sizes 9–10, where the classifier resolves classes by invariant
// and VF2 instead of canonical codes. Both run at GOMAXPROCS 1 and 3.
func TestFindMatchesReference(t *testing.T) {
	configs := []Config{
		{MinSize: 3, MaxSize: 10, MinFreq: 3, BeamWidth: 6, MaxOccPerClass: 7, DenseBeamFraction: 0.5, Seed: 3},
		{MinSize: 2, MaxSize: 6, MinFreq: 3, BeamWidth: 10, MaxOccPerClass: 40, Seed: 5},
		{MinSize: 3, MaxSize: 5, MinFreq: 20, BeamWidth: 0, MaxOccPerClass: 200, Seed: 7},
		{MinSize: 4, MaxSize: 4, MinFreq: 1, MaxOccPerClass: 0, Seed: 9},
	}
	var graphs []*graph.Graph
	for i := 0; i < 44; i++ {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		n := 30 + rng.Intn(40)
		if i%2 == 0 {
			graphs = append(graphs, randnet.BarabasiAlbert(n, 2+rng.Intn(2), 2, rng))
		} else {
			graphs = append(graphs, randnet.ErdosRenyi(n, n+rng.Intn(2*n), rng))
		}
	}
	var reservoir, deep int
	for gi, g := range graphs {
		for ci, cfg := range configs {
			want := refFind(g, cfg)
			for _, procs := range []int{1, 3} {
				prev := runtime.GOMAXPROCS(procs)
				got := Find(g, cfg)
				runtime.GOMAXPROCS(prev)
				if msg := diffMotifs(got, want); msg != "" {
					t.Fatalf("GOMAXPROCS=%d graph %d config %d: %s", procs, gi, ci, msg)
				}
			}
			for _, m := range want {
				if m.Frequency > len(m.Occurrences) {
					reservoir++
				}
				if m.Size() >= 9 {
					deep++
				}
			}
		}
	}
	if reservoir == 0 || deep == 0 {
		t.Fatalf("configs too weak: %d reservoir-capped motifs, %d of size >= 9", reservoir, deep)
	}
}

// diffMotifs describes the first difference between two miner outputs, or
// returns "" when they are identical.
func diffMotifs(got, want []*Motif) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d motifs, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Pattern.String() != w.Pattern.String() || g.Frequency != w.Frequency || g.Uniqueness != w.Uniqueness {
			return fmt.Sprintf("motif %d: %s freq=%d, want %s freq=%d", i, g.Pattern, g.Frequency, w.Pattern, w.Frequency)
		}
		if len(g.Occurrences) != len(w.Occurrences) {
			return fmt.Sprintf("motif %d: %d occurrences, want %d", i, len(g.Occurrences), len(w.Occurrences))
		}
		for k := range w.Occurrences {
			if !slices.Equal(g.Occurrences[k], w.Occurrences[k]) {
				return fmt.Sprintf("motif %d occurrence %d: %v, want %v", i, k, g.Occurrences[k], w.Occurrences[k])
			}
		}
	}
	return ""
}
