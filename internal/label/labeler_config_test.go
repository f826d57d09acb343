package label

import (
	"testing"

	"lamofinder/internal/dataset"
	"lamofinder/internal/motif"
)

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
