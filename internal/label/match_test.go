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

func TestFindConforming(t *testing.T) {
	pe, motifs := exampleMotifs(t)
	lm := motifs[0]
	// The motif's own occurrences must be rediscovered in the source
	// network (they conform by construction).
	occs := FindConforming(pe.Network, pe.Corpus, lm, 0)
	if len(occs) < len(lm.Occurrences) {
		t.Fatalf("FindConforming found %d, motif has %d", len(occs), len(lm.Occurrences))
	}
	// Every result embeds the pattern and conforms.
	for _, occ := range occs {
		for i := 0; i < lm.Size(); i++ {
			for j := i + 1; j < lm.Size(); j++ {
				if lm.Pattern.HasEdge(i, j) && !pe.Network.HasEdge(int(occ[i]), int(occ[j])) {
					t.Fatalf("occurrence %v does not embed pattern", occ)
				}
			}
		}
		for v, p := range occ {
			if !vertexConforms(pe.Ontology, lm.Labels[v], pe.Corpus.Terms(int(p))) {
				t.Fatalf("occurrence %v does not conform at vertex %d", occ, v)
			}
		}
	}
	// Limit respected.
	if got := FindConforming(pe.Network, pe.Corpus, lm, 2); len(got) != 2 {
		t.Errorf("limit ignored: %d", len(got))
	}
}

func TestFindConformingRejectsWrongLabels(t *testing.T) {
	// A scheme demanding a label absent everywhere finds nothing with
	// annotated proteins... vertices with annotations that lack the term
	// are rejected; fully unannotated regions still conform trivially.
	pe, motifs := exampleMotifs(t)
	src := motifs[0]
	g06 := int32(pe.Term("G06"))
	strict := &LabeledMotif{
		Pattern: src.Pattern,
		Labels:  [][]int32{{g06}, {g06}, {g06}, {g06}},
	}
	for _, occ := range FindConforming(pe.Network, pe.Corpus, strict, 0) {
		for _, p := range occ {
			ts := pe.Corpus.Terms(int(p))
			if len(ts) == 0 {
				continue
			}
			ok := false
			for _, at := range ts {
				if pe.Ontology.IsAncestorOrSelf(int(g06), int(at)) {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("non-conforming protein %d in %v", p, occ)
			}
		}
	}
}
