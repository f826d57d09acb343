// Function prediction with labeled network motifs (the paper's Section 5):
// build the synthetic MIPS-like benchmark, run the full labeling pipeline,
// and compare the labeled-motif predictor against the four topology
// baselines under leave-one-out.
package main

import (
	"fmt"
	"os"

	"lamofinder/internal/dataset"
	"lamofinder/internal/eval"
	"lamofinder/internal/label"
	"lamofinder/internal/motif"
	"lamofinder/internal/predict"
)

func main() {
	mcfg := dataset.DefaultMIPSConfig()
	mcfg.Proteins = 700 // reduced scale keeps this example fast
	mcfg.Edges = 960
	m := dataset.NewMIPS(mcfg)
	task := m.Task
	fmt.Printf("benchmark: %d proteins, %d interactions, %d annotated, %d categories\n",
		task.Network.N(), task.Network.M(), task.NumAnnotated(), task.NumFunctions)

	mine := motif.DefaultConfig()
	mine.MaxSize = 7
	mine.MinFreq = 10
	mine.BeamWidth = 60
	motifs := motif.Find(task.Network, mine)

	null := motif.DefaultUniquenessConfig()
	null.Networks = 4
	unique := motif.ScoreUnique(task.Network, motifs, null, 0.75)
	fmt.Printf("mined %d classes, %d over-represented\n", len(motifs), len(unique))

	lcfg := label.DefaultConfig()
	lcfg.Sigma = 6
	lcfg.MaxOccurrences = 120
	lcfg.MinDirect = 12 // informative-FC threshold scaled to 700 proteins
	labeler := label.NewLabeler(m.Corpus, lcfg)
	labeled := labeler.LabelAll(unique)
	fmt.Printf("LaMoFinder produced %d labeled motifs\n", len(labeled))

	scorers := []predict.Scorer{
		label.NewScorer(task, labeled),
		predict.NewMRF(task),
		predict.NewChiSquare(task),
		predict.NewNC(task),
		predict.NewProdistin(task),
	}
	var curves []eval.Curve
	for _, s := range scorers {
		curves = append(curves, eval.LeaveOneOut(task, s, task.NumFunctions))
	}
	fmt.Println()
	fmt.Print(eval.FormatCurves(curves))

	// The paper's comparison is precision at comparable recall: report the
	// top-1 operating point, where the labeled-motif method shows its edge.
	best, bestP := "", 0.0
	for _, c := range curves {
		if p := c.Points[0].Precision; p > bestP {
			best, bestP = c.Method, p
		}
	}
	fmt.Printf("\nbest precision at k=1: %s (%.3f)\n", best, bestP)
	if best != "LabeledMotif" {
		fmt.Println("note: on very small instances the labeled-motif method may lose its edge")
		os.Exit(0)
	}
	fmt.Println("the labeled-motif method leads, as in the paper's Figure 9")
}
