package label

import (
	"testing"

	"lamofinder/internal/dataset"
	"lamofinder/internal/motif"
)

func TestLabelMotifMinSimBlocksWeakMerges(t *testing.T) {
	// With MinSim just above any possible similarity, nothing merges and no
	// cluster reaches sigma=2.
	pe := dataset.NewPaperExample()
	l := NewLabelerWithCounts(pe.Corpus, pe.Direct, Config{
		Sigma: 2, MinDirect: 30, MinSim: 1.01,
	})
	if got := l.LabelMotif(pe.Motif); len(got) != 0 {
		t.Errorf("MinSim above 1 still merged: %d motifs", len(got))
	}
}

func TestLabelMotifRestrictLabelSpace(t *testing.T) {
	// With label-space restriction, initial schemes may only contain border
	// informative FC (G04, G05, G06) and their descendants; G03 (above the
	// border) must never appear in emitted labels unless reached by
	// generalization... restriction filters the *direct* annotations, so no
	// G03 can seed a scheme; LCA-based generalization from within the space
	// can only reach ancestors of space members.
	pe := dataset.NewPaperExample()
	l := NewLabelerWithCounts(pe.Corpus, pe.Direct, Config{
		Sigma: 2, MinDirect: 30, RestrictLabelSpace: true,
	})
	motifs := l.LabelMotif(pe.Motif)
	if len(motifs) == 0 {
		t.Fatal("no motifs with restricted space")
	}
	space := pe.Ontology.LabelSpace(pe.Direct, 30)
	for _, lm := range motifs {
		for v, ts := range lm.Labels {
			for _, term := range ts {
				if space[term] {
					continue
				}
				// Above-border terms can only arise as common ancestors of
				// in-space terms; they must be ancestors of a border FC.
				isAnc := false
				for _, b := range pe.Ontology.BorderInformativeFC(pe.Direct, 30) {
					if pe.Ontology.IsAncestorOrSelf(int(term), b) {
						isAnc = true
					}
				}
				if !isAnc {
					t.Errorf("vertex %d carries out-of-space term %s",
						v, pe.Ontology.ID(int(term)))
				}
			}
		}
	}
}

func TestLabelMotifEmptyOccurrences(t *testing.T) {
	pe := dataset.NewPaperExample()
	l := NewLabelerWithCounts(pe.Corpus, pe.Direct, Config{Sigma: 1, MinDirect: 30})
	m := &motif.Motif{Pattern: pe.Motif.Pattern}
	if got := l.LabelMotif(m); len(got) != 0 {
		t.Errorf("empty occurrence list produced %v", got)
	}
}

func TestLabelAllFlattens(t *testing.T) {
	pe := dataset.NewPaperExample()
	l := NewLabelerWithCounts(pe.Corpus, pe.Direct, Config{Sigma: 2, MinDirect: 30})
	single := l.LabelMotif(pe.Motif)
	double := l.LabelAll([]*motif.Motif{pe.Motif, pe.Motif})
	if len(double) != 2*len(single) {
		t.Errorf("LabelAll: %d vs 2x%d", len(double), len(single))
	}
}

func TestLabelMotifMaxOccurrencesCap(t *testing.T) {
	pe := dataset.NewPaperExample()
	l := NewLabelerWithCounts(pe.Corpus, pe.Direct, Config{
		Sigma: 2, MinDirect: 30, MaxOccurrences: 2,
	})
	for _, lm := range l.LabelMotif(pe.Motif) {
		if len(lm.Occurrences) > 2 {
			t.Errorf("occurrence cap ignored: %d", len(lm.Occurrences))
		}
	}
}
