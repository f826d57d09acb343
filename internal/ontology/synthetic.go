package ontology

import (
	"fmt"
	"math/rand"
)

// SyntheticConfig controls GO-like DAG generation.
type SyntheticConfig struct {
	Prefix          string  // term id prefix, e.g. "BP" -> "BP:0000042"
	Terms           int     // total number of terms (>= 1)
	Branching       float64 // mean children per internal term (level growth)
	MultiParentProb float64 // chance of an extra parent (GO terms can have several)
	PartOfProb      float64 // chance an edge is part_of instead of is_a
}

// DefaultSyntheticConfig mimics a single GO branch at yeast scale.
func DefaultSyntheticConfig(prefix string, terms int) SyntheticConfig {
	return SyntheticConfig{
		Prefix:          prefix,
		Terms:           terms,
		Branching:       3.5,
		MultiParentProb: 0.15,
		PartOfProb:      0.2,
	}
}

// Synthetic generates a GO-like ontology branch: a rooted DAG whose level
// sizes grow geometrically, with occasional multi-parent terms and part-of
// edges. Term ids are Prefix:%07d in breadth-first order; index 0 is the
// root.
//
// invariant: the generated relation set is acyclic by construction (edges
// only point to shallower levels), so Build cannot fail; a failure would be
// a bug in this generator.
func Synthetic(cfg SyntheticConfig, rng *rand.Rand) *Ontology {
	if cfg.Terms < 1 {
		cfg.Terms = 1
	}
	if cfg.Branching < 1.1 {
		cfg.Branching = 1.1
	}
	b := NewBuilder()
	id := func(i int) string { return fmt.Sprintf("%s:%07d", cfg.Prefix, i) }
	b.AddTerm(id(0), cfg.Prefix+" root")

	// Levels of term indices; root is level 0.
	levels := [][]int{{0}}
	next := 1
	for next < cfg.Terms {
		prev := levels[len(levels)-1]
		size := int(float64(len(prev)) * cfg.Branching)
		if size < 2 {
			size = 2
		}
		if next+size > cfg.Terms {
			size = cfg.Terms - next
		}
		var lvl []int
		for k := 0; k < size; k++ {
			t := next
			next++
			b.AddTerm(id(t), fmt.Sprintf("%s term %d", cfg.Prefix, t))
			rel := IsA
			if rng.Float64() < cfg.PartOfProb {
				rel = PartOf
			}
			parent := prev[rng.Intn(len(prev))]
			b.AddRelation(id(t), id(parent), rel)
			if rng.Float64() < cfg.MultiParentProb {
				// Extra parent from any shallower level (not the same term).
				pl := levels[rng.Intn(len(levels))]
				p2 := pl[rng.Intn(len(pl))]
				if p2 != parent {
					rel2 := IsA
					if rng.Float64() < cfg.PartOfProb {
						rel2 = PartOf
					}
					b.AddRelation(id(t), id(p2), rel2)
				}
			}
			lvl = append(lvl, t)
		}
		levels = append(levels, lvl)
	}
	o, err := b.Build()
	if err != nil {
		// The construction above only adds child->shallower-level edges,
		// so a cycle is impossible; any failure is a programming error.
		panic(err)
	}
	return o
}

// Leaves returns the terms with no children.
func (o *Ontology) Leaves() []int {
	var out []int
	for t := range o.childs {
		if len(o.childs[t]) == 0 {
			out = append(out, t)
		}
	}
	return out
}
