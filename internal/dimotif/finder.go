package dimotif

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"lamofinder/internal/graph"
	"lamofinder/internal/label"
	"lamofinder/internal/motif"
	"lamofinder/internal/ontology"
)

// Motif is a directed pattern with supporting occurrences (pattern vertex
// order).
type Motif struct {
	Pattern     *DiDense
	Occurrences [][]int32
	Frequency   int
	Uniqueness  float64
}

// Size returns the pattern's vertex count.
func (m *Motif) Size() int { return m.Pattern.N() }

// String summarizes the motif.
func (m *Motif) String() string {
	return fmt.Sprintf("dimotif%s freq=%d uniq=%.2f", m.Pattern, m.Frequency, m.Uniqueness)
}

// diClassState is a directed pattern class being grown at the current
// level.
type diClassState struct {
	pattern *DiDense
	str     string // pattern.String(), cached for the selection sort
	occs    [][]int32
	freq    int
}

// patStr returns the cached pattern arc-list string (the selection sort's
// final tiebreak); distinct classes render distinct strings.
func (cs *diClassState) patStr() string {
	if cs.str == "" {
		cs.str = cs.pattern.String()
	}
	return cs.str
}

// Find mines frequent weakly connected directed patterns level-by-level,
// mirroring the undirected beam miner: occurrences are extended by one weak
// neighbor, regrouped by directed isomorphism class, pruned by frequency,
// and capped by beam width with reservoir-sampled occurrence lists.
//
// The per-candidate loop reuses everything: candidate sets dedup through
// an epoch-stamped hash set, induced directed subgraphs fill a scratch
// DiDense, class state is a slice indexed by the classifier's dense
// first-seen ids, and stored occurrences carve from a slab arena with
// in-place reservoir replacement (DESIGN.md §13).
func Find(g *DiGraph, cfg motif.Config) []*Motif {
	if cfg.MinSize < 2 {
		cfg.MinSize = 2
	}
	if cfg.MaxSize < cfg.MinSize {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var arena graph.OccArena
	var seenSets graph.VSetDedup
	var d DiDense
	// The level being counted: its classifier and class states, indexed
	// by the classifier's dense first-seen ids.
	var cl *Classifier
	var classes []*diClassState
	// record counts the sorted candidate vertex set vs, once per level,
	// into its class, and stores it in the class representative's vertex
	// order while the class has room, else by reservoir replacement.
	record := func(vs []int32) {
		if !seenSets.Insert(vs) {
			return
		}
		g.FillInducedDi(&d, vs)
		id := cl.Classify(&d)
		if id == len(classes) {
			classes = append(classes, &diClassState{pattern: cl.Rep(id)})
		}
		cs := classes[id]
		cs.freq++
		var occ []int32
		if cfg.MaxOccPerClass == 0 || len(cs.occs) < cfg.MaxOccPerClass {
			occ = arena.Take(vs)
			cs.occs = append(cs.occs, occ)
		} else if r := rng.Intn(cs.freq); r < cfg.MaxOccPerClass {
			occ = cs.occs[r]
		}
		if occ != nil {
			mp := cl.OccMapping(id, &d)
			for i := range vs {
				occ[i] = vs[mp[i]]
			}
		}
	}

	// Level 2: the two weak-edge classes (single arc u->v; mutual arcs).
	cl = NewClassifier()
	seenSets.Reset(2)
	var pair [2]int32
	for u := 0; u < g.N(); u++ {
		g.weakNeighbors(u, func(w int32) {
			pair[0], pair[1] = min(int32(u), w), max(int32(u), w)
			record(pair[:])
		})
	}
	level := classes
	sort.SliceStable(level, func(i, j int) bool { return level[i].freq > level[j].freq })

	var out []*Motif
	emit := func(cs *diClassState, size int) {
		if size >= cfg.MinSize && cs.freq >= cfg.MinFreq {
			out = append(out, &Motif{
				Pattern:     cs.pattern,
				Occurrences: cs.occs,
				Frequency:   cs.freq,
				Uniqueness:  -1,
			})
		}
	}
	if cfg.MinSize <= 2 {
		for _, cs := range level {
			emit(cs, 2)
		}
	}

	for size := 3; size <= cfg.MaxSize && len(level) > 0; size++ {
		cl, classes = NewClassifier(), nil
		seenSets.Reset(size)
		sortedOcc := make([]int32, 0, size)
		vsBuf := make([]int32, size)
		for _, cs := range level {
			for _, occ := range cs.occs {
				sortedOcc = append(sortedOcc[:0], occ...)
				insertSort32(sortedOcc)
				for _, v := range occ {
					g.weakNeighbors(int(v), func(w int32) {
						if contains32(occ, w) {
							return
						}
						vs := vsBuf
						pos := 0
						for pos < len(sortedOcc) && sortedOcc[pos] < w {
							vs[pos] = sortedOcc[pos]
							pos++
						}
						vs[pos] = w
						copy(vs[pos+1:], sortedOcc[pos:])
						record(vs)
					})
				}
			}
		}
		var kept []*diClassState
		for _, ns := range classes {
			if ns.freq >= cfg.MinFreq {
				kept = append(kept, ns)
			}
		}
		sort.Slice(kept, func(i, j int) bool {
			if kept[i].freq != kept[j].freq {
				return kept[i].freq > kept[j].freq
			}
			return kept[i].patStr() < kept[j].patStr()
		})
		if cfg.BeamWidth > 0 && len(kept) > cfg.BeamWidth {
			kept = kept[:cfg.BeamWidth]
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

// insertSort32 sorts a short int32 slice ascending in place.
//
// alloc-budget: 0
func insertSort32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func contains32(s []int32, x int32) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// ScoreUniqueness fills each motif's Uniqueness against in/out-degree-
// preserving randomizations, with the undirected version's round limit and
// verdict (motif.UniquenessConfig.Limit and Won). Each motif's
// automorphism group is listed once, not once per network.
func ScoreUniqueness(g *DiGraph, motifs []*Motif, cfg motif.UniquenessConfig) {
	if cfg.Networks <= 0 {
		return
	}
	auts := make([]int, len(motifs))
	for i, m := range motifs {
		auts[i] = len(Automorphisms(m.Pattern, 0))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	wins := make([]int, len(motifs))
	for r := 0; r < cfg.Networks; r++ {
		rnet := g.Randomize(0, rng)
		for i, m := range motifs {
			cnt, exact := countDirUpTo(rnet, m.Pattern, auts[i], cfg.Limit(m.Frequency), cfg.MaxSteps)
			if cfg.Won(m.Frequency, cnt, exact) {
				wins[i]++
			}
		}
	}
	for i, m := range motifs {
		m.Uniqueness = float64(wins[i]) / float64(cfg.Networks)
	}
}

// FilterUnique keeps motifs with uniqueness >= minUniq.
func FilterUnique(ms []*Motif, minUniq float64) []*Motif {
	var out []*Motif
	for _, m := range ms {
		if m.Uniqueness >= minUniq {
			out = append(out, m)
		}
	}
	return out
}

// LabeledMotif is a directed motif whose vertices carry GO label sets.
type LabeledMotif struct {
	Pattern     *DiDense
	Labels      [][]int32
	Occurrences [][]int32
	Frequency   int
	Uniqueness  float64
}

// Size returns the vertex count.
func (lm *LabeledMotif) Size() int { return lm.Pattern.N() }

// Describe renders the labeled motif against an ontology.
func (lm *LabeledMotif) Describe(o *ontology.Ontology) string {
	parts := []string{fmt.Sprintf("%s freq=%d uniq=%.2f", lm.Pattern, lm.Frequency, lm.Uniqueness)}
	for v, ts := range lm.Labels {
		if len(ts) == 0 {
			parts = append(parts, fmt.Sprintf("v%d={unknown}", v))
			continue
		}
		ids := make([]string, len(ts))
		for i, t := range ts {
			ids[i] = o.ID(int(t))
		}
		parts = append(parts, fmt.Sprintf("v%d={%s}", v, strings.Join(ids, ",")))
	}
	return strings.Join(parts, " ")
}

// Label runs LaMoFinder on a directed motif: the directed symmetry group
// drives the occurrence pairing, everything else (similarity, clustering,
// least-general schemes, stopping rule) is the shared machinery.
func Label(l *label.Labeler, m *Motif) []*LabeledMotif {
	sym := label.SymmetryOf(Orbits(m.Pattern), func(cap int) [][]int { return Automorphisms(m.Pattern, cap) })
	schemes := l.LabelOccurrences(m.Size(), m.Occurrences, sym)
	out := make([]*LabeledMotif, 0, len(schemes))
	for _, s := range schemes {
		out = append(out, &LabeledMotif{
			Pattern:     m.Pattern,
			Labels:      s.Labels,
			Occurrences: s.Occurrences,
			Frequency:   len(s.Occurrences),
			Uniqueness:  m.Uniqueness,
		})
	}
	return out
}
