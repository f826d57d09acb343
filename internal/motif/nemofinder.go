package motif

import (
	"math/rand"
	"sort"

	"lamofinder/internal/graph"
)

// NeMoConfig controls the NeMoFinder-style miner: repeated-tree driven
// discovery (Chen et al., SIGKDD 2006 — the miner the ICDE paper feeds
// into LaMoFinder).
type NeMoConfig struct {
	MinSize, MaxSize int
	// MinFreq is the frequency threshold for both trees and subgraph
	// classes.
	MinFreq int
	// MaxTreeClasses caps the repeated-tree classes carried per level (by
	// frequency); 0 = unlimited.
	MaxTreeClasses int
	// MaxOccPerTree caps each tree class's stored occurrence list
	// (reservoir sampled); 0 = unlimited.
	MaxOccPerTree int
	Seed          int64
}

// DefaultNeMoConfig mirrors the SIGKDD paper's setup at laptop scale.
func DefaultNeMoConfig() NeMoConfig {
	return NeMoConfig{
		MinSize:        3,
		MaxSize:        12,
		MinFreq:        30,
		MaxTreeClasses: 120,
		MaxOccPerTree:  400,
		Seed:           1,
	}
}

// NeMoFind mines frequent connected subgraph classes by the repeated-tree
// strategy: size-k trees are grown level-wise and grouped by their AHU
// canonical form (linear-time, unlike general canonicalization); every
// connected subgraph has a spanning tree, so the vertex sets supporting
// frequent trees are exactly the candidate occurrences of frequent
// subgraph classes, which are then grouped by induced isomorphism class.
// Compared to the beam miner (Find), pruning happens in the cheap tree
// domain and general-graph classification is deferred to reporting.
func NeMoFind(g *graph.Graph, cfg NeMoConfig) []*Motif {
	if cfg.MinSize < 2 {
		cfg.MinSize = 2
	}
	if cfg.MaxSize < cfg.MinSize {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// treeClass tracks one repeated-tree class: its occurrences are vertex
	// sets whose spanning tree (the grown one) has this shape.
	type treeClass struct {
		key  string
		occs [][]int32 // sorted vertex sets
		freq int
	}

	// Level 2: the single edge tree. Each level is a slice in its kept
	// order (frequency, then key), so the walk below, the reservoir's draws
	// and the occurrences kept are the same on every run.
	edgeKey, _ := graph.TreeCanonicalKey(edgePattern())
	ec := &treeClass{key: edgeKey}
	for _, e := range g.Edges(nil) {
		ec.occs = append(ec.occs, []int32{e[0], e[1]})
	}
	ec.freq = len(ec.occs)
	if cfg.MaxOccPerTree > 0 && len(ec.occs) > cfg.MaxOccPerTree {
		rng.Shuffle(len(ec.occs), func(i, j int) { ec.occs[i], ec.occs[j] = ec.occs[j], ec.occs[i] })
		ec.occs = ec.occs[:cfg.MaxOccPerTree]
	}
	lvl := []*treeClass{ec}

	var out []*Motif
	report := func(classes []*treeClass, size int) {
		if size < cfg.MinSize {
			return
		}
		// Group all supporting vertex sets by induced subgraph class;
		// byClass is indexed by classifier id, so classes emit in the order
		// they were first seen.
		cl := graph.NewClassifier()
		var byClass []*Motif
		seen := map[string]bool{}
		for _, tc := range classes {
			for _, vs := range tc.occs {
				k := setKey(vs)
				if seen[k] {
					continue
				}
				seen[k] = true
				d := g.Induced(vs)
				id := cl.Classify(d)
				if id == len(byClass) {
					byClass = append(byClass, &Motif{Pattern: cl.Rep(id), Uniqueness: -1})
				}
				m := byClass[id]
				m.Frequency++
				mp := cl.OccMapping(id, d)
				occ := make([]int32, len(vs))
				for i := range vs {
					occ[i] = vs[mp[i]]
				}
				m.Occurrences = append(m.Occurrences, occ)
			}
		}
		for _, m := range byClass {
			if m.Frequency >= cfg.MinFreq {
				out = append(out, m)
			}
		}
	}
	report(lvl, 2)

	for size := 3; size <= cfg.MaxSize && len(lvl) > 0; size++ {
		next := map[string]*treeClass{}
		seenSets := map[string]bool{}
		for _, tc := range lvl {
			for _, occ := range tc.occs {
				for _, v := range occ {
					for _, w := range g.Neighbors(int(v)) {
						if contains(occ, w) {
							continue
						}
						vs := make([]int32, 0, size)
						vs = append(vs, occ...)
						vs = append(vs, w)
						sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
						k := setKey(vs)
						if seenSets[k] {
							continue
						}
						seenSets[k] = true
						// The grown spanning tree: a BFS tree of the induced
						// subgraph (cheap, deterministic per set).
						tree := g.Induced(vs).SpanningTree()
						key, ok := graph.TreeCanonicalKey(tree)
						if !ok {
							continue // disconnected set cannot happen by construction
						}
						nc := next[key]
						if nc == nil {
							nc = &treeClass{key: key}
							next[key] = nc
						}
						nc.freq++
						if cfg.MaxOccPerTree == 0 || len(nc.occs) < cfg.MaxOccPerTree {
							nc.occs = append(nc.occs, vs)
						} else if r := rng.Intn(nc.freq); r < cfg.MaxOccPerTree {
							nc.occs[r] = vs
						}
					}
				}
			}
		}
		// Prune infrequent trees; cap classes by frequency.
		var kept []*treeClass
		for _, nc := range next {
			if nc.freq >= cfg.MinFreq {
				kept = append(kept, nc)
			}
		}
		sort.Slice(kept, func(i, j int) bool {
			if kept[i].freq != kept[j].freq {
				return kept[i].freq > kept[j].freq
			}
			return kept[i].key < kept[j].key
		})
		if cfg.MaxTreeClasses > 0 && len(kept) > cfg.MaxTreeClasses {
			kept = kept[:cfg.MaxTreeClasses]
		}
		lvl = kept
		report(lvl, size)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Size() != out[j].Size() {
			return out[i].Size() < out[j].Size()
		}
		return out[i].Frequency > out[j].Frequency
	})
	return out
}
