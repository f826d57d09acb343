package label

import (
	"strings"
	"testing"

	"lamofinder/internal/dataset"
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
	got, dropped, err := ReadMotifs(strings.NewReader(sb.String()), pe.Ontology)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d", dropped)
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

func TestReadMotifsUnknownTermsDropped(t *testing.T) {
	pe := dataset.NewPaperExample()
	src := `{"n":2,"edges":[[0,1]],"labels":[["G04","ZZ:gone"],[]],"occurrences":[[0,1]],"frequency":1,"uniqueness":0.5}` + "\n"
	got, dropped, err := ReadMotifs(strings.NewReader(src), pe.Ontology)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if len(got) != 1 || len(got[0].Labels[0]) != 1 {
		t.Errorf("unexpected load: %+v", got)
	}
}

func TestReadMotifsRejectsBadData(t *testing.T) {
	pe := dataset.NewPaperExample()
	cases := []string{
		`{"n":99,"edges":[],"labels":[],"occurrences":[]}`,
		`{"n":2,"edges":[[0,5]],"labels":[],"occurrences":[]}`,
		`{"n":1,"edges":[],"labels":[[],["G04"]],"occurrences":[]}`,
		`not json`,
	}
	for i, src := range cases {
		if _, _, err := ReadMotifs(strings.NewReader(src+"\n"), pe.Ontology); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
