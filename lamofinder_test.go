package lamofinder

import (
	"strings"
	"testing"
)

func TestFacadeGraph(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.M() != 2 || !g.HasEdge(1, 0) {
		t.Errorf("graph state wrong: M=%d", g.M())
	}
	p := NewPattern(3)
	p.AddEdge(0, 1)
	p.AddEdge(1, 2)
	if p.M() != 2 || !p.Connected() {
		t.Errorf("pattern wrong: %v", p)
	}
}

func TestFacadeOntology(t *testing.T) {
	b := NewOntologyBuilder()
	b.AddTerm("root", "the root")
	b.AddRelation("leaf", "root", IsA)
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCorpus(o, 5)
	c.Annotate(0, o.Index("leaf"))
	w := o.ComputeWeights(c.DirectCounts())
	if w[o.Index("root")] != 1 {
		t.Errorf("root weight = %v", w[o.Index("root")])
	}
}

func TestFacadeOBO(t *testing.T) {
	o, err := ParseOBO(strings.NewReader("[Term]\nid: A\n\n[Term]\nid: B\nis_a: A\n"))
	if err != nil {
		t.Fatal(err)
	}
	if o.NumTerms() != 2 {
		t.Errorf("terms = %d", o.NumTerms())
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	// Paper example in one breath: weights, labeling, prediction machinery.
	pe := PaperExample()
	cfg := DefaultLabelConfig()
	cfg.Sigma = 2
	labeler := NewLabelerWithCounts(pe.Corpus, pe.Direct, cfg)
	labeled := labeler.LabelMotif(pe.Motif)
	if len(labeled) == 0 {
		t.Fatal("no labeled motifs")
	}

	// Feed the labeled motifs into the predictor over a toy task.
	task := NewTask(pe.Network, 2)
	for p := 0; p < 8; p++ {
		task.Functions[p] = []int{p % 2}
	}
	scorer := NewLabeledMotifScorer(task, labeled)
	curve := LeaveOneOut(task, scorer, 2)
	if curve.Method != "LabeledMotif" || len(curve.Points) != 2 {
		t.Errorf("curve: %+v", curve)
	}
}

func TestFacadeMining(t *testing.T) {
	g := NewGraph(60)
	for i := 0; i < 60; i++ {
		g.AddEdge(i, (i+1)%60)
	}
	for c := 0; c < 12; c++ {
		g.AddEdge(3*c, 3*c+2)
	}
	cfg := DefaultMineConfig()
	cfg.MaxSize = 3
	cfg.MinFreq = 10
	ms := FindMotifs(g, cfg)
	if len(ms) == 0 {
		t.Fatal("no motifs")
	}
	null := DefaultNullModel()
	null.Networks = 4
	ScoreUniqueness(g, ms, null)
	// At least the planted triangle should be measured.
	found := false
	for _, m := range ms {
		if m.Pattern.M() == 3 && m.Uniqueness >= 0.5 {
			found = true
		}
	}
	if !found {
		t.Error("planted triangle not over-represented")
	}
	if got := FilterUnique(ms, 2.0); len(got) != 0 {
		t.Error("impossible threshold returned motifs")
	}
}

func TestFacadeSimilarity(t *testing.T) {
	pe := PaperExample()
	s := NewSim(pe.Ontology, pe.Weights())
	g09 := pe.Term("G09")
	if got := s.Term(g09, g09); got != 1 {
		t.Errorf("self similarity = %v", got)
	}
	sym := NewSymmetry(pe.Motif.Pattern)
	if len(sym.Orbits) == 0 {
		t.Error("no orbits")
	}
	merged := LeastGeneral(pe.Ontology, pe.Weights(),
		[]int32{int32(pe.Term("G10"))}, []int32{int32(pe.Term("G11"))}, 0)
	if len(merged) != 1 || pe.Ontology.ID(int(merged[0])) != "G08" {
		t.Errorf("least general = %v", merged)
	}
}

func TestFacadeLoaders(t *testing.T) {
	g, names, err := LoadEdgeList(strings.NewReader("A B\nB C\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || len(names) != 3 {
		t.Errorf("N=%d names=%d", g.N(), len(names))
	}
	o, err := ParseOBO(strings.NewReader("[Term]\nid: X\n"))
	if err != nil {
		t.Fatal(err)
	}
	c, skipped, err := LoadAnnotations(strings.NewReader("A\tX\nA\tY\n"), o, names)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 || !c.Annotated(0) {
		t.Errorf("skipped=%d annotated=%v", skipped, c.Annotated(0))
	}
}

func TestFacadeDatasets(t *testing.T) {
	mcfg := DefaultMIPSConfig()
	mcfg.Proteins = 200
	mcfg.Edges = 280
	m := NewMIPS(mcfg)
	if m.Task.Network.N() != 200 {
		t.Errorf("MIPS N = %d", m.Task.Network.N())
	}
	if m.Task.NumAnnotated() == 0 {
		t.Error("MIPS has no annotations")
	}
}

func TestFacadeDictionaryAndPersistence(t *testing.T) {
	pe := PaperExample()
	cfg := DefaultLabelConfig()
	cfg.Sigma = 2
	labeler := NewLabelerWithCounts(pe.Corpus, pe.Direct, cfg)
	motifs := labeler.LabelMotif(pe.Motif)
	if len(motifs) == 0 {
		t.Fatal("no motifs")
	}
	var sb strings.Builder
	if err := WriteMotifs(&sb, pe.Ontology, motifs); err != nil {
		t.Fatal(err)
	}
	back, dropped, err := ReadMotifs(strings.NewReader(sb.String()), pe.Ontology)
	if err != nil || dropped != 0 || len(back) != len(motifs) {
		t.Fatalf("round trip: %v dropped=%d n=%d", err, dropped, len(back))
	}
	var dot strings.Builder
	if err := WriteDOT(&dot, pe.Ontology, motifs[0], "m"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "graph") {
		t.Error("DOT malformed")
	}
}

func TestFacadeDirected(t *testing.T) {
	g := NewDiGraph(50)
	for i := 0; i+2 < 50; i += 3 {
		g.AddArc(i, i+1)
		g.AddArc(i+1, i+2)
		g.AddArc(i, i+2)
	}
	cfg := DefaultMineConfig()
	cfg.MaxSize = 3
	cfg.MinFreq = 5
	ms := FindDirectedMotifs(g, cfg)
	if len(ms) == 0 {
		t.Fatal("no directed motifs")
	}
	null := DefaultNullModel()
	null.Networks = 3
	ScoreDirectedUniqueness(g, ms, null)
	unique := FilterUniqueDirected(ms, 0.5)
	if len(unique) == 0 {
		t.Error("planted FFLs not over-represented")
	}
	p := NewDiPattern(2)
	p.AddArc(0, 1)
	if p.M() != 1 {
		t.Error("DiPattern wrong")
	}
}

func TestFacadeScoreZAndYeast(t *testing.T) {
	g := NewGraph(120)
	for i := 0; i < 120; i++ {
		g.AddEdge(i, (i+1)%120)
	}
	for c := 0; c < 20; c++ {
		g.AddEdge(3*c, 3*c+2)
	}
	cfg := DefaultMineConfig()
	cfg.MaxSize = 3
	cfg.MinFreq = 10
	ms := FindMotifs(g, cfg)
	null := DefaultNullModel()
	null.Networks = 3
	zs := ScoreZ(g, ms, null)
	if len(zs) != len(ms) {
		t.Fatalf("z-scores = %d", len(zs))
	}
	ycfg := DefaultYeastConfig()
	ycfg.Proteins = 150
	ycfg.Edges = 260
	ycfg.TermsPerBranch = 40
	ycfg.Templates = []TemplateSpec{{Size: 4, Edges: 1, Instances: 10, PoolSize: 12}}
	y := NewYeast(ycfg)
	if y.Network.N() != 150 || len(y.Planted) != 1 {
		t.Errorf("yeast: N=%d planted=%d", y.Network.N(), len(y.Planted))
	}
}
