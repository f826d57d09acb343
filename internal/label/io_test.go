package label

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"lamofinder/internal/dataset"
	"lamofinder/internal/graph"
)

func TestMotifDictionaryRoundTrip(t *testing.T) {
	pe := dataset.NewPaperExample()
	l := NewLabelerWithCounts(pe.Corpus, pe.Direct, Config{Sigma: 2, MinDirect: 30})
	motifs := l.LabelMotif(pe.Motif)
	if len(motifs) == 0 {
		t.Fatal("no motifs to serialize")
	}
	var sb strings.Builder
	if err := WriteMotifs(&sb, pe.Ontology, motifs); err != nil {
		t.Fatal(err)
	}
	// Decode the JSON lines back into motifs, resolving term IDs against
	// the same ontology.
	dec := json.NewDecoder(strings.NewReader(sb.String()))
	var got []*LabeledMotif
	for {
		var j motifJSON
		if err := dec.Decode(&j); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		lm := &LabeledMotif{
			Pattern:     graph.NewDense(j.N),
			Labels:      make([][]int32, j.N),
			Occurrences: j.Occurrences,
			Frequency:   j.Frequency,
			Uniqueness:  j.Uniqueness,
		}
		for _, e := range j.Edges {
			lm.Pattern.AddEdge(e[0], e[1])
		}
		for v, ids := range j.Labels {
			for _, id := range ids {
				term := pe.Ontology.Index(id)
				if term < 0 {
					t.Fatalf("motif %d vertex %d: unknown term %q", len(got), v, id)
				}
				lm.Labels[v] = append(lm.Labels[v], int32(term))
			}
		}
		got = append(got, lm)
	}
	if len(got) != len(motifs) {
		t.Fatalf("motifs %d -> %d", len(motifs), len(got))
	}
	for i := range got {
		a, b := motifs[i], got[i]
		if a.Pattern.String() != b.Pattern.String() {
			t.Errorf("motif %d pattern differs: %v vs %v", i, a.Pattern, b.Pattern)
		}
		if a.Frequency != b.Frequency || a.Uniqueness != b.Uniqueness {
			t.Errorf("motif %d metadata differs", i)
		}
		if len(a.Occurrences) != len(b.Occurrences) {
			t.Fatalf("motif %d occurrences %d -> %d", i, len(a.Occurrences), len(b.Occurrences))
		}
		for v := range a.Labels {
			if len(a.Labels[v]) != len(b.Labels[v]) {
				t.Errorf("motif %d vertex %d labels %v -> %v", i, v, a.Labels[v], b.Labels[v])
				continue
			}
			for k := range a.Labels[v] {
				if a.Labels[v][k] != b.Labels[v][k] {
					t.Errorf("motif %d vertex %d label %d differs", i, v, k)
				}
			}
		}
	}
}
