// Motif labeling on a whole synthetic interactome: build a BIND-like yeast
// network with planted motif structure, mine frequent patterns, keep the
// over-represented ones (randomized null model), and label them with
// LaMoFinder against the biological-process GO branch — the Section-4
// workflow of the paper at reduced scale.
package main

import (
	"fmt"

	"lamofinder/internal/dataset"
	"lamofinder/internal/label"
	"lamofinder/internal/motif"
)

func main() {
	// A mid-sized interactome keeps this example under a minute.
	ycfg := dataset.DefaultYeastConfig()
	ycfg.Proteins = 1000
	ycfg.Edges = 1800
	ycfg.TermsPerBranch = 150
	ycfg.Templates = []dataset.TemplateSpec{
		{Size: 5, Edges: 2, Instances: 30, PoolSize: 15},
		{Size: 6, Edges: 2, Instances: 30, PoolSize: 18},
		{Size: 8, Edges: 3, Instances: 30, PoolSize: 24},
	}
	y := dataset.NewYeast(ycfg)
	net := y.Network
	fmt.Printf("synthetic interactome: %d proteins, %d interactions\n", net.N(), net.M())

	mine := motif.DefaultConfig()
	mine.MaxSize = 8
	mine.MinFreq = 20
	mine.BeamWidth = 40
	motifs := motif.Find(net, mine)
	fmt.Printf("mined %d frequent pattern classes (sizes %d..%d, freq >= %d)\n",
		len(motifs), mine.MinSize, mine.MaxSize, mine.MinFreq)

	null := motif.DefaultUniquenessConfig()
	null.Networks = 5
	unique := motif.ScoreUnique(net, motifs, null, 0.9)
	fmt.Printf("%d network motifs with uniqueness >= 0.90\n", len(unique))

	corpus := y.Corpora[0] // biological process branch
	lcfg := label.DefaultConfig()
	lcfg.Sigma = 8
	lcfg.MaxOccurrences = 60
	labeler := label.NewLabeler(corpus, lcfg)
	labeled := labeler.LabelAll(unique)
	fmt.Printf("LaMoFinder produced %d labeled network motifs\n", len(labeled))

	o := corpus.Ontology()
	show := len(labeled)
	if show > 8 {
		show = 8
	}
	for _, lm := range labeled[:show] {
		fmt.Printf("  %s\n", lm.Describe(o))
	}
	if len(labeled) > show {
		fmt.Printf("  ... and %d more\n", len(labeled)-show)
	}
}
