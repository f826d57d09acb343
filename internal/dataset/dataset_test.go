package dataset

import (
	"strings"
	"testing"
)

func TestPaperExampleStructure(t *testing.T) {
	pe := NewPaperExample()
	if pe.Ontology.NumTerms() != 11 {
		t.Errorf("terms = %d", pe.Ontology.NumTerms())
	}
	if pe.Network.N() != 22 {
		t.Errorf("proteins = %d", pe.Network.N())
	}
	if got := len(pe.Motif.Occurrences); got != 4 {
		t.Errorf("occurrences = %d", got)
	}
	// Every occurrence embeds the 4-cycle.
	for k, occ := range pe.Motif.Occurrences {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if pe.Motif.Pattern.HasEdge(i, j) && !pe.Network.HasEdge(int(occ[i]), int(occ[j])) {
					t.Errorf("occurrence %d misses edge (%d,%d)", k, i, j)
				}
			}
		}
	}
	// Table 2 spot checks.
	p1 := pe.Corpus.Terms(0)
	if len(p1) != 3 {
		t.Errorf("p1 annotations = %d, want 3", len(p1))
	}
	if pe.Corpus.Annotated(16) { // p17 is unannotated
		t.Error("p17 should be unannotated")
	}
	// Total direct = 585 in Table 1.
	sum := 0
	for _, c := range pe.Direct {
		sum += c
	}
	if sum != 585 {
		t.Errorf("direct sum = %d, want 585", sum)
	}
}

func TestPaperExampleWeightsRoot(t *testing.T) {
	pe := NewPaperExample()
	w := pe.Weights()
	if w[pe.Term("G01")] != 1 {
		t.Errorf("root weight = %v", w[pe.Term("G01")])
	}
}

func TestYeastScale(t *testing.T) {
	cfg := DefaultYeastConfig()
	cfg.Proteins = 800
	cfg.Edges = 1400
	cfg.TermsPerBranch = 120
	cfg.Templates = []TemplateSpec{
		{Size: 5, Edges: 2, Instances: 25, PoolSize: 15},
		{Size: 8, Edges: 2, Instances: 25, PoolSize: 24},
	}
	y := NewYeast(cfg)
	if y.Network.N() != 800 {
		t.Fatalf("N = %d", y.Network.N())
	}
	if y.Network.M() < cfg.Edges {
		t.Errorf("M = %d, want >= %d", y.Network.M(), cfg.Edges)
	}
	if len(y.Planted) != 2 {
		t.Fatalf("planted = %d", len(y.Planted))
	}
	for ti, pt := range y.Planted {
		if len(pt.Instances) < 15 {
			t.Errorf("template %d has only %d instances", ti, len(pt.Instances))
		}
		for _, inst := range pt.Instances {
			n := pt.Pattern.N()
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if pt.Pattern.HasEdge(i, j) && !y.Network.HasEdge(int(inst[i]), int(inst[j])) {
						t.Fatalf("template %d instance not embedded", ti)
					}
				}
			}
		}
	}
	// Coverage near target on each branch.
	for b := 0; b < 3; b++ {
		cov := float64(y.Corpora[b].NumAnnotated()) / 800
		if cov < 0.75 || cov > 0.95 {
			t.Errorf("branch %d coverage = %.2f", b, cov)
		}
	}
}

func TestYeastPositionCoherence(t *testing.T) {
	// Corresponding positions across instances must share annotation terms
	// far more often than random pairs do.
	cfg := DefaultYeastConfig()
	cfg.Proteins = 600
	cfg.Edges = 1000
	cfg.TermsPerBranch = 150
	cfg.Templates = []TemplateSpec{{Size: 6, Edges: 2, Instances: 30, PoolSize: 18}}
	y := NewYeast(cfg)
	c := y.Corpora[0]
	pt := y.Planted[0]
	share := func(a, b int32) bool {
		for _, x := range c.Terms(int(a)) {
			for _, y2 := range c.Terms(int(b)) {
				if x == y2 {
					return true
				}
			}
		}
		return false
	}
	same, cross := 0, 0
	sameN, crossN := 0, 0
	for i := 0; i < len(pt.Instances); i++ {
		for j := i + 1; j < len(pt.Instances); j++ {
			for v := 0; v < 6; v++ {
				a, b := pt.Instances[i][v], pt.Instances[j][v]
				if a == b {
					continue
				}
				sameN++
				if share(a, b) {
					same++
				}
				w := (v + 1) % 6
				a2, b2 := pt.Instances[i][v], pt.Instances[j][w]
				if a2 != b2 {
					crossN++
					if share(a2, b2) {
						cross++
					}
				}
			}
		}
	}
	sameRate := float64(same) / float64(sameN)
	crossRate := float64(cross) / float64(crossN)
	if sameRate < 0.5 {
		t.Errorf("same-position term sharing rate = %.2f, want >= 0.5", sameRate)
	}
	if sameRate < 2*crossRate {
		t.Errorf("position coherence weak: same=%.2f cross=%.2f", sameRate, crossRate)
	}
}

func TestMIPSScale(t *testing.T) {
	cfg := DefaultMIPSConfig()
	cfg.Proteins = 500
	cfg.Edges = 700
	m := NewMIPS(cfg)
	if m.Task.Network.N() != 500 {
		t.Fatalf("N = %d", m.Task.Network.N())
	}
	if m.Task.Network.M() < 700 {
		t.Errorf("M = %d", m.Task.Network.M())
	}
	annFrac := float64(m.Task.NumAnnotated()) / 500
	if annFrac < 0.8 || annFrac > 1.0 {
		t.Errorf("annotated fraction = %.2f", annFrac)
	}
	if len(m.Planted) == 0 {
		t.Fatal("no planted templates")
	}
}

func TestMIPSPositionCategories(t *testing.T) {
	// Within a planted template, proteins at the same position must mostly
	// share their primary category.
	cfg := DefaultMIPSConfig()
	cfg.Proteins = 600
	cfg.Edges = 850
	m := NewMIPS(cfg)
	pt := m.Planted[0]
	agree, total := 0, 0
	nv := pt.Pattern.N()
	for v := 0; v < nv; v++ {
		// Majority category at position v.
		counts := map[int]int{}
		for _, inst := range pt.Instances {
			p := int(inst[v])
			if len(m.Task.Functions[p]) > 0 {
				counts[m.Task.Functions[p][0]]++
			}
		}
		bestC, bestN, n := -1, 0, 0
		for c, k := range counts {
			n += k
			if k > bestN {
				bestC, bestN = c, k
			}
		}
		_ = bestC
		agree += bestN
		total += n
	}
	if total == 0 {
		t.Fatal("no annotated planted proteins")
	}
	if rate := float64(agree) / float64(total); rate < 0.6 {
		t.Errorf("position-category agreement = %.2f, want >= 0.6", rate)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	src := "# comment\nA\tB\nB C\nA\tC\nA A\nB\tA\n"
	g, names, err := LoadEdgeList(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, names2, err := LoadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() || len(names2) != len(names) {
		t.Errorf("round trip: M %d->%d names %d->%d", g.M(), g2.M(), len(names), len(names2))
	}
}

func TestEdgeListMalformed(t *testing.T) {
	if _, _, err := LoadEdgeList(strings.NewReader("just-one-column\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestAnnotationsRoundTrip(t *testing.T) {
	pe := NewPaperExample()
	names := make([]string, 22)
	for i := range names {
		names[i] = pe.Network.Name(i)
	}
	var sb strings.Builder
	if err := WriteAnnotations(&sb, pe.Corpus, names); err != nil {
		t.Fatal(err)
	}
	c2, skipped, err := LoadAnnotations(strings.NewReader(sb.String()), pe.Ontology, names)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d", skipped)
	}
	for p := 0; p < 22; p++ {
		a, b := pe.Corpus.Terms(p), c2.Terms(p)
		if len(a) != len(b) {
			t.Fatalf("protein %d terms %d -> %d", p, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("protein %d terms differ", p)
			}
		}
	}
}

func TestAnnotationsSkipsUnknown(t *testing.T) {
	pe := NewPaperExample()
	src := "p1\tG04\nnosuch\tG04\np1\tZZ:missing\n"
	names := make([]string, 22)
	for i := range names {
		names[i] = pe.Network.Name(i)
	}
	c, skipped, err := LoadAnnotations(strings.NewReader(src), pe.Ontology, names)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2", skipped)
	}
	if len(c.Terms(0)) != 1 {
		t.Errorf("p1 terms = %v", c.Terms(0))
	}
}

func TestMIPSCorpusInformativeLeaves(t *testing.T) {
	cfg := DefaultMIPSConfig()
	m := NewMIPS(cfg)
	direct := m.Corpus.DirectCounts()
	inf := m.Ontology.InformativeFC(direct, 30)
	if len(inf) < cfg.Categories {
		t.Errorf("only %d informative terms; labeling space too thin", len(inf))
	}
}
