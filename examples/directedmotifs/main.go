// Directed labeled motifs — the paper's stated further work ("mining
// labeled and directed network motifs"). This example builds a synthetic
// gene-regulatory network with planted feed-forward loops (FFLs), mines
// directed motifs, tests them against an in/out-degree-preserving null
// model, and labels them with GO terms so that the regulator, intermediate
// and target roles become visible in the labels.
package main

import (
	"fmt"
	"math/rand"

	"lamofinder/internal/dimotif"
	"lamofinder/internal/label"
	"lamofinder/internal/motif"
	"lamofinder/internal/ontology"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	const n = 600

	// Regulatory network: a sparse random background plus 120 planted FFLs
	// over a pool of transcription-factor-like vertices.
	g := dimotif.NewDiGraph(n)
	for i := 0; i < 700; i++ {
		g.AddArc(rng.Intn(n), rng.Intn(n))
	}
	type ffl struct{ reg, mid, tgt int }
	var planted []ffl
	for c := 0; c < 120; c++ {
		reg := rng.Intn(60)          // small pool of regulators
		mid := 60 + rng.Intn(120)    // intermediates
		tgt := 180 + rng.Intn(n-180) // broad target space
		if reg == mid || mid == tgt || reg == tgt {
			continue
		}
		g.AddArc(reg, mid)
		g.AddArc(mid, tgt)
		g.AddArc(reg, tgt)
		planted = append(planted, ffl{reg, mid, tgt})
	}
	fmt.Printf("regulatory network: %d genes, %d arcs, %d planted FFLs\n",
		g.N(), g.M(), len(planted))

	// GO-like roles: regulator / intermediate / target subtrees.
	b := ontology.NewBuilder()
	b.AddTerm("GO:root", "biological regulation")
	roles := map[string]string{
		"GO:tf":  "transcription regulator activity",
		"GO:sig": "signal transduction",
		"GO:eff": "effector expression",
	}
	for id, name := range roles {
		b.AddTerm(id, name)
		b.AddRelation(id, "GO:root", ontology.IsA)
		b.AddRelation(id+".a", id, ontology.IsA)
		b.AddRelation(id+".b", id, ontology.IsA)
	}
	o, err := b.Build()
	if err != nil {
		panic(err)
	}
	corpus := ontology.NewCorpus(o, n)
	leaf := func(role string) int {
		if rng.Intn(2) == 0 {
			return o.Index(role + ".a")
		}
		return o.Index(role + ".b")
	}
	for _, f := range planted {
		corpus.Annotate(f.reg, leaf("GO:tf"))
		corpus.Annotate(f.mid, leaf("GO:sig"))
		corpus.Annotate(f.tgt, leaf("GO:eff"))
	}

	// Mine directed motifs and keep the over-represented ones.
	mine := motif.DefaultConfig()
	mine.MaxSize = 3
	mine.MinFreq = 30
	motifs := dimotif.Find(g, mine)
	null := motif.DefaultUniquenessConfig()
	null.Networks = 6
	unique := dimotif.ScoreUnique(g, motifs, null, 0.8)
	fmt.Printf("mined %d directed classes, %d over-represented:\n", len(motifs), len(unique))
	for _, m := range unique {
		fmt.Printf("  %s\n", m)
	}

	// Label them: the FFL's three roles should surface as distinct labels.
	lcfg := label.DefaultConfig()
	lcfg.Sigma = 10
	lcfg.MinDirect = 1000 // tiny corpus: disable border freezing
	labeler := label.NewLabeler(corpus, lcfg)
	for _, m := range unique {
		for _, lm := range dimotif.Label(labeler, m) {
			fmt.Printf("labeled: %s\n", lm.Describe(o))
		}
	}
}
