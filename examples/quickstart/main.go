// Quickstart: the LaMoFinder pipeline end to end on the paper's own worked
// example (Figures 1-3): compute GO term weights, measure occurrence
// similarity, and label the example motif g.
package main

import (
	"fmt"
	"os"

	"lamofinder/internal/dataset"
	"lamofinder/internal/label"
	"lamofinder/internal/ontology"
)

func main() {
	pe := dataset.NewPaperExample()
	o := pe.Ontology
	w := pe.Weights()

	fmt.Println("== Gene Ontology weights (Table 1) ==")
	for i := 1; i <= 11; i++ {
		id := fmt.Sprintf("G%02d", i)
		t := pe.Term(id)
		fmt.Printf("  %s  w=%.2f\n", id, w[t])
	}

	fmt.Println("\n== Term similarity (Eq. 1) ==")
	g08, g09 := pe.Term("G08"), pe.Term("G09")
	lca := ontology.NewLCAIndex(o, w)
	fmt.Printf("  ST(G08,G09) = %.3f (lowest common parent %s)\n",
		lca.Lin(g08, g09), o.ID(lca.LCA(g08, g09)))

	fmt.Println("\n== Occurrence similarity (Eq. 3, Table 3) ==")
	sim := label.NewSim(o, w)
	sym := label.NewSymmetry(pe.Motif.Pattern)
	labelsOf := func(occ []int32) [][]int32 {
		out := make([][]int32, len(occ))
		for i, p := range occ {
			out[i] = pe.Corpus.Terms(int(p))
		}
		return out
	}
	so, pairing := sim.Occurrence(
		labelsOf(pe.Motif.Occurrences[0]),
		labelsOf(pe.Motif.Occurrences[1]), sym)
	fmt.Printf("  SO(o1,o2) = %.3f with vertex pairing %v\n", so, pairing)

	fmt.Println("\n== LaMoFinder (Algorithms 1-2) ==")
	cfg := label.DefaultConfig()
	cfg.Sigma = 2 // the worked example has only 4 occurrences
	labeler := label.NewLabelerWithCounts(pe.Corpus, pe.Direct, cfg)
	labeled := labeler.LabelMotif(pe.Motif)
	if len(labeled) == 0 {
		fmt.Println("  no labeled motifs (unexpected)")
		os.Exit(1)
	}
	for _, lm := range labeled {
		fmt.Printf("  %s\n", lm.Describe(o))
	}
}
