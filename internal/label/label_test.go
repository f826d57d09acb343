package label

import (
	"math"
	"testing"

	"lamofinder/internal/dataset"
	"lamofinder/internal/graph"
	"lamofinder/internal/motif"
	"lamofinder/internal/ontology"
)

func ids(o *ontology.Ontology, ts []int32) map[string]bool {
	m := map[string]bool{}
	for _, t := range ts {
		m[o.ID(int(t))] = true
	}
	return m
}

func TestTable3VertexSimilarities(t *testing.T) {
	// Reproduces Table 3's SV column for the o1/o2 vertex pairings. The
	// paper prints 2-decimal values from its own weight table; with the
	// reconstructed DAG small deviations are expected, so we assert a
	// tolerance of 0.15 and the qualitative structure (high vs low pairs).
	pe := dataset.NewPaperExample()
	s := NewSim(pe.Ontology, pe.Weights())
	terms := func(p int) []int32 { return pe.Corpus.Terms(p) }
	pv := func(i int) int { return i - 1 }
	cases := []struct {
		a, b int
		want float64
	}{
		{1, 12, 1.00},
		{1, 10, 0.99},
		{2, 9, 1.00},
		{2, 11, 0.76},
		{3, 10, 0.80},
		{3, 12, 0.45},
		{4, 11, 0.69},
		{4, 9, 0.99},
	}
	for _, c := range cases {
		got := s.Vertex(terms(pv(c.a)), terms(pv(c.b)))
		if math.Abs(got-c.want) > 0.15 {
			t.Errorf("SV(p%d,p%d) = %.3f, want ~%.2f", c.a, c.b, got, c.want)
		}
	}
}

func TestTable3OccurrenceSimilarity(t *testing.T) {
	// SO(o1, o2) = 0.87 in the paper; reproduce within tolerance, and check
	// the chosen pairing beats the alternative pairing.
	pe := dataset.NewPaperExample()
	s := NewSim(pe.Ontology, pe.Weights())
	o1 := pe.Motif.Occurrences[0]
	o2 := pe.Motif.Occurrences[1]
	labels := func(occ []int32) [][]int32 {
		out := make([][]int32, len(occ))
		for i, p := range occ {
			out[i] = pe.Corpus.Terms(int(p))
		}
		return out
	}
	sym := NewSymmetry(pe.Motif.Pattern)
	if sym.ExactOrbitPairing() {
		t.Error("C4 requires automorphism pairing (24 orbit perms vs 8 auts)")
	}
	so, pairing := s.Occurrence(labels(o1), labels(o2), sym)
	if math.Abs(so-0.87) > 0.1 {
		t.Errorf("SO(o1,o2) = %.3f, want ~0.87", so)
	}
	if len(pairing) != 4 {
		t.Fatalf("pairing = %v", pairing)
	}
	// Pairing must be a permutation.
	seen := map[int]bool{}
	for _, p := range pairing {
		if seen[p] {
			t.Fatalf("pairing not injective: %v", pairing)
		}
		seen[p] = true
	}
}

func TestOccurrenceSimilaritySymmetryMax(t *testing.T) {
	// With symmetric vertices, SO must pick the better of the two pairings.
	pe := dataset.NewPaperExample()
	o := pe.Ontology
	s := NewSim(o, pe.Weights())
	g04 := int32(pe.Term("G04"))
	g06 := int32(pe.Term("G06"))
	// Motif: single edge (both vertices symmetric).
	pat := graph.NewDense(2)
	pat.AddEdge(0, 1)
	sym := NewSymmetry(pat)
	if len(sym.Orbits) != 1 || len(sym.Orbits[0]) != 2 {
		t.Fatalf("edge orbits = %v", sym.Orbits)
	}
	if !sym.ExactOrbitPairing() {
		t.Error("single edge should allow exact orbit pairing")
	}
	a := [][]int32{{g04}, {g06}}
	b := [][]int32{{g06}, {g04}} // swapped: identity pairing scores low
	so, pairing := s.Occurrence(a, b, sym)
	if so < 0.99 {
		t.Errorf("SO with swap = %.3f, want ~1 (swapped pairing)", so)
	}
	if pairing[0] != 1 || pairing[1] != 0 {
		t.Errorf("pairing = %v, want [1 0]", pairing)
	}
}

func TestVertexSimilarityUnknown(t *testing.T) {
	pe := dataset.NewPaperExample()
	s := NewSim(pe.Ontology, pe.Weights())
	if got := s.Vertex(nil, []int32{int32(pe.Term("G04"))}); got != UnknownSim {
		t.Errorf("SV(unknown, X) = %v, want %v", got, UnknownSim)
	}
}

func TestVertexSimilarityIdenticalTerm(t *testing.T) {
	pe := dataset.NewPaperExample()
	s := NewSim(pe.Ontology, pe.Weights())
	g09 := int32(pe.Term("G09"))
	if got := s.Vertex([]int32{g09}, []int32{g09}); got != 1 {
		t.Errorf("SV with shared term = %v, want 1", got)
	}
}

func TestLeastGeneralTable4(t *testing.T) {
	// Table 4: minimum common father labels per vertex of o1 and o2.
	pe := dataset.NewPaperExample()
	o := pe.Ontology
	idx := ontology.NewLCAIndex(o, pe.Weights())
	tix := func(s string) int32 { return int32(pe.Term(s)) }
	set := func(ss ...string) []int32 {
		out := make([]int32, len(ss))
		for i, s := range ss {
			out[i] = tix(s)
		}
		return out
	}
	cases := []struct {
		a, b []int32
		want []string
	}{
		{set("G04", "G09", "G10"), set("G09"), []string{"G02", "G09", "G05"}},
		{set("G03", "G10"), set("G10", "G11"), []string{"G03", "G10", "G08"}},
		{set("G08"), set("G03", "G05", "G07"), []string{"G03", "G05", "G04"}},
		{set("G07", "G09"), set("G05"), []string{"G02", "G05"}},
	}
	for i, c := range cases {
		got := LeastGeneral(idx, c.a, c.b, 0)
		gotIDs := ids(o, got)
		if len(gotIDs) != len(c.want) {
			t.Errorf("row %d: got %v, want %v", i+1, gotIDs, c.want)
			continue
		}
		for _, s := range c.want {
			if !gotIDs[s] {
				t.Errorf("row %d: missing %s (got %v)", i+1, s, gotIDs)
			}
		}
	}
}

func TestLeastGeneralEmptySides(t *testing.T) {
	pe := dataset.NewPaperExample()
	idx := ontology.NewLCAIndex(pe.Ontology, pe.Weights())
	g04 := []int32{int32(pe.Term("G04"))}
	if got := LeastGeneral(idx, nil, g04, 0); len(got) != 1 || got[0] != g04[0] {
		t.Errorf("empty-left merge = %v", got)
	}
	if got := LeastGeneral(idx, g04, nil, 0); len(got) != 1 || got[0] != g04[0] {
		t.Errorf("empty-right merge = %v", got)
	}
	if got := LeastGeneral(idx, nil, nil, 0); len(got) != 0 {
		t.Errorf("empty-empty merge = %v", got)
	}
}

func TestLeastGeneralCap(t *testing.T) {
	pe := dataset.NewPaperExample()
	a := []int32{int32(pe.Term("G04")), int32(pe.Term("G09")), int32(pe.Term("G10"))}
	b := []int32{int32(pe.Term("G09")), int32(pe.Term("G11"))}
	got := LeastGeneral(ontology.NewLCAIndex(pe.Ontology, pe.Weights()), a, b, 1)
	if len(got) != 1 {
		t.Fatalf("cap ignored: %v", got)
	}
}

// vertexConforms is the per-vertex conformance rule the tests hold emitted
// schemes to: every scheme term must be equal to or more general than some
// annotation of the protein. An
// empty scheme ("unknown") conforms trivially, as does an unannotated
// protein (the paper derives its labels from the other occurrences).
func vertexConforms(o *ontology.Ontology, scheme, ann []int32) bool {
	if len(scheme) == 0 || len(ann) == 0 {
		return true
	}
	for _, st := range scheme {
		ok := false
		for _, at := range ann {
			if o.IsAncestorOrSelf(int(st), int(at)) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func TestConforms(t *testing.T) {
	pe := dataset.NewPaperExample()
	o := pe.Ontology
	g05 := int32(pe.Term("G05"))
	g09 := int32(pe.Term("G09"))
	g04 := int32(pe.Term("G04"))
	// Scheme {G05} conforms to occurrence vertex annotated {G09} (G05 is an
	// ancestor of G09).
	if !vertexConforms(o, []int32{g05}, []int32{g09}) {
		t.Error("ancestor scheme should conform")
	}
	// Scheme {G04} does not conform to {G09}.
	if vertexConforms(o, []int32{g04}, []int32{g09}) {
		t.Error("unrelated scheme should not conform")
	}
	// Unknown scheme vertex conforms to anything.
	if !vertexConforms(o, nil, []int32{g09}) {
		t.Error("unknown scheme vertex must conform")
	}
	// Unannotated occurrence vertex conforms to any scheme.
	if !vertexConforms(o, []int32{g04}, nil) {
		t.Error("unannotated occurrence vertex must conform")
	}
}

func TestLabelMotifPaperExample(t *testing.T) {
	// Run LaMoFinder on the worked example with sigma=2: the four
	// occurrences of g must produce at least one labeled motif covering
	// o1 and o2 (the pair the paper merges), whose scheme conforms to its
	// member occurrences.
	pe := dataset.NewPaperExample()
	l := NewLabelerWithCounts(pe.Corpus, pe.Direct, Config{
		Sigma:              2,
		MinDirect:          30,
		MaxLabelsPerVertex: 0,
		MaxOccurrences:     0,
	})
	lms := l.LabelMotif(pe.Motif)
	if len(lms) == 0 {
		t.Fatal("no labeled motif produced")
	}
	for _, lm := range lms {
		if lm.Frequency != len(lm.Occurrences) {
			t.Errorf("frequency %d != occurrences %d", lm.Frequency, len(lm.Occurrences))
		}
		if lm.Size() != 4 {
			t.Errorf("size = %d", lm.Size())
		}
		// The scheme must conform to every member occurrence.
		for _, occ := range lm.Occurrences {
			for v, p := range occ {
				if !vertexConforms(pe.Ontology, lm.Labels[v], pe.Corpus.Terms(int(p))) {
					t.Errorf("scheme %v does not conform to occurrence %v at vertex %d",
						lm.Describe(pe.Ontology), occ, v)
				}
			}
		}
	}
}

func TestLabelMotifSigmaFilters(t *testing.T) {
	pe := dataset.NewPaperExample()
	l := NewLabelerWithCounts(pe.Corpus, pe.Direct, Config{
		Sigma:     5, // more than the 4 occurrences available
		MinDirect: 30,
	})
	if lms := l.LabelMotif(pe.Motif); len(lms) != 0 {
		t.Errorf("sigma above occurrence count still produced %d motifs", len(lms))
	}
}

func TestLabelMotifUnannotatedOccurrences(t *testing.T) {
	// A motif whose occurrences include unannotated proteins must still be
	// labelable from the annotated ones, with unknowns absorbed.
	pe := dataset.NewPaperExample()
	m := &motif.Motif{
		Pattern: pe.Motif.Pattern,
		Occurrences: [][]int32{
			pe.Motif.Occurrences[0], // annotated (p1..p4)
			{16, 18, 19, 15},        // p17..p20,p16: mostly unannotated
			pe.Motif.Occurrences[1], // annotated (o2)
		},
		Frequency:  3,
		Uniqueness: 1,
	}
	l := NewLabelerWithCounts(pe.Corpus, pe.Direct, Config{Sigma: 3, MinDirect: 30})
	lms := l.LabelMotif(m)
	if len(lms) == 0 {
		t.Fatal("expected a labeled motif despite unannotated occurrence")
	}
}

func TestLabeledMotifDescribe(t *testing.T) {
	pe := dataset.NewPaperExample()
	lm := &LabeledMotif{
		Pattern: pe.Motif.Pattern,
		Labels:  [][]int32{{int32(pe.Term("G04"))}, nil, nil, nil},
	}
	s := lm.Describe(pe.Ontology)
	if s == "" || !containsStr(s, "G04") || !containsStr(s, "unknown") {
		t.Errorf("Describe = %q", s)
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestMergeKeepsOccurrenceCorrespondence(t *testing.T) {
	// After LabelMotif, every emitted occurrence must still be a valid
	// embedding of the pattern in the network.
	pe := dataset.NewPaperExample()
	l := NewLabelerWithCounts(pe.Corpus, pe.Direct, Config{Sigma: 2, MinDirect: 30})
	for _, lm := range l.LabelMotif(pe.Motif) {
		for _, occ := range lm.Occurrences {
			for i := 0; i < 4; i++ {
				for j := i + 1; j < 4; j++ {
					if lm.Pattern.HasEdge(i, j) && !pe.Network.HasEdge(int(occ[i]), int(occ[j])) {
						t.Fatalf("occurrence %v no longer embeds pattern", occ)
					}
				}
			}
		}
	}
}
