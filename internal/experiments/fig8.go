package experiments

import (
	"bufio"
	"fmt"
	"io"

	"lamofinder/internal/dataset"
	"lamofinder/internal/label"
	"lamofinder/internal/predict"
)

// Figure8Result demonstrates the paper's Figure 8: an unknown protein p
// sitting in an occurrence of a labeled motif inherits the functions of the
// proteins occupying the corresponding vertex in the other occurrences.
type Figure8Result struct {
	// Protein is the query protein's name.
	Protein string
	// Vertex is p's position in the labeled motif.
	Vertex int
	// TopFunction is the predicted function (term id) and its score.
	TopFunction string
	Score       float64
	// Ranking lists term ids best-first.
	Ranking []string
	// Correct reports whether the top prediction matches the hidden truth.
	Correct bool
}

// Figure8 builds the demonstration on the paper's worked example: the
// labeled motif from Figures 2-3 predicts the function of protein p1 with
// its own annotations hidden, using the corresponding vertices of the other
// occurrences (the mechanism of Section 5.1 / Figure 8).
func Figure8() *Figure8Result {
	pe := dataset.NewPaperExample()
	o := pe.Ontology

	// Label the example motif.
	l := label.NewLabelerWithCounts(pe.Corpus, pe.Direct, label.Config{
		Sigma: 2, MinDirect: 30,
	})
	motifs := l.LabelMotif(pe.Motif)

	// Prediction task at GO-term granularity: each annotated protein's
	// direct terms act as its "functions".
	task := predict.NewTask(pe.Network, o.NumTerms())
	for p := 0; p < pe.Network.N(); p++ {
		for _, t := range pe.Corpus.Terms(p) {
			task.Functions[p] = append(task.Functions[p], int(t))
		}
	}
	scorer := label.NewScorer(task, motifs)

	// Query: protein p1 (vertex 0 of occurrence o1). Scores exclude p1's
	// own annotations by construction.
	const query = 0 // p1
	ranked := predict.TopK(scorer.Scores(query), 0)
	res := &Figure8Result{Protein: pe.Network.Name(query), Vertex: 0}
	best := -1
	if len(ranked) > 0 {
		best = ranked[0].Function
		res.TopFunction = o.ID(best)
		res.Score = ranked[0].Score
	}
	for _, r := range ranked {
		res.Ranking = append(res.Ranking, fmt.Sprintf("%s:%.2f", o.ID(r.Function), r.Score))
	}
	// Truth: p1 is annotated with G04, G09, G10 (Table 2). The prediction
	// is "correct" when the top term is one of them or an ancestor.
	for _, t := range pe.Corpus.Terms(query) {
		if best >= 0 && (best == int(t) || o.IsAncestorOrSelf(best, int(t))) {
			res.Correct = true
		}
	}
	return res
}

// WriteText renders the demonstration.
func (r *Figure8Result) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "Figure 8: predicting the function of protein %s from its labeled motif\n", r.Protein)
	fmt.Fprintf(bw, "  top prediction: %s (score %.2f), correct=%v\n", r.TopFunction, r.Score, r.Correct)
	fmt.Fprintf(bw, "  ranking: %v\n", r.Ranking)
	return bw.Flush()
}
