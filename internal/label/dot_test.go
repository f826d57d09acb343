package label

import (
	"strings"
	"testing"

	"lamofinder/internal/dataset"
)

// exampleMotifs labels the worked example's motif at σ = 2.
func exampleMotifs(t *testing.T) (*dataset.PaperExample, []*LabeledMotif) {
	t.Helper()
	pe := dataset.NewPaperExample()
	l := NewLabelerWithCounts(pe.Corpus, pe.Direct, Config{Sigma: 2, MinDirect: 30})
	motifs := l.LabelMotif(pe.Motif)
	if len(motifs) == 0 {
		t.Fatal("no motifs")
	}
	return pe, motifs
}

func TestWriteDOT(t *testing.T) {
	pe, motifs := exampleMotifs(t)
	var sb strings.Builder
	if err := WriteDOT(&sb, pe.Ontology, motifs[0], "g1"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graph \"g1\"", "v0", "--", "freq="} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Edge count must match the pattern.
	if got := strings.Count(out, "--"); got != motifs[0].Pattern.M() {
		t.Errorf("DOT edges = %d, pattern has %d", got, motifs[0].Pattern.M())
	}
}
