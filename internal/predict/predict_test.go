package predict

import (
	"math"
	"testing"

	"lamofinder/internal/graph"
)

// starTask builds a hub with annotated leaves: hub 0 unknown; leaves 1..6
// annotated, four with function 0, two with function 1.
func starTask() *Task {
	g := graph.New(7)
	for v := 1; v <= 6; v++ {
		g.AddEdge(0, v)
	}
	t := NewTask(g, 3)
	t.Functions[1] = []int{0}
	t.Functions[2] = []int{0}
	t.Functions[3] = []int{0}
	t.Functions[4] = []int{0}
	t.Functions[5] = []int{1}
	t.Functions[6] = []int{1}
	return t
}

func TestTaskBasics(t *testing.T) {
	task := starTask()
	if task.NumAnnotated() != 6 {
		t.Errorf("NumAnnotated = %d", task.NumAnnotated())
	}
	if task.Annotated(0) {
		t.Error("hub should be unannotated")
	}
	if !task.Has(1, 0) || task.Has(1, 1) {
		t.Error("Has wrong")
	}
	pri := task.Priors()
	if math.Abs(pri[0]-4.0/6) > 1e-9 || math.Abs(pri[1]-2.0/6) > 1e-9 || pri[2] != 0 {
		t.Errorf("priors = %v", pri)
	}
}

func TestNCRanksMajorityFunction(t *testing.T) {
	task := starTask()
	nc := NewNC(task)
	if nc.Name() != "NC" {
		t.Errorf("name = %q", nc.Name())
	}
	s := nc.Scores(0)
	if s[0] != 4 || s[1] != 2 || s[2] != 0 {
		t.Errorf("NC scores = %v", s)
	}
}

func TestNCExcludesOwnAnnotation(t *testing.T) {
	// Protein 1's own function must not leak into its scores: scores come
	// only from neighbors (hub 0, unannotated).
	task := starTask()
	nc := NewNC(task)
	s := nc.Scores(1)
	for f, v := range s {
		if v != 0 {
			t.Errorf("leaf scores[%d] = %v, want 0 (only unannotated neighbor)", f, v)
		}
	}
}

func TestChiSquareEnrichment(t *testing.T) {
	task := starTask()
	cs := NewChiSquare(task)
	s := cs.Scores(0)
	// Function 0: observed 4, expected 6*(4/6) = 4 -> 0.
	if math.Abs(s[0]) > 1e-9 {
		t.Errorf("chi2[0] = %v, want 0 (exactly expected)", s[0])
	}
	// Function 2: observed 0 but prior 0 -> no evidence, 0.
	if s[2] != 0 {
		t.Errorf("chi2[2] = %v", s[2])
	}
}

func TestChiSquareSignedDepletion(t *testing.T) {
	// A protein whose neighbors all carry function 1 while the genome is
	// mostly function 0: f0 must score negative (depleted), f1 positive.
	g := graph.New(12)
	task := NewTask(g, 2)
	for v := 1; v <= 4; v++ {
		g.AddEdge(0, v)
		task.Functions[v] = []int{1}
	}
	for v := 5; v < 12; v++ {
		task.Functions[v] = []int{0}
	}
	cs := NewChiSquare(task)
	s := cs.Scores(0)
	if s[0] >= 0 {
		t.Errorf("depleted function scored %v, want negative", s[0])
	}
	if s[1] <= 0 {
		t.Errorf("enriched function scored %v, want positive", s[1])
	}
	if s[1] <= s[0] {
		t.Error("enrichment should outrank depletion")
	}
}

func TestMRFLearnsHomophily(t *testing.T) {
	// Two cliques with distinct functions: the MRF must give a higher
	// function-0 posterior to a protein inside the function-0 clique.
	g := graph.New(12)
	task := NewTask(g, 2)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			g.AddEdge(i, j)
			g.AddEdge(6+i, 6+j)
		}
	}
	for i := 0; i < 6; i++ {
		task.Functions[i] = []int{0}
		task.Functions[6+i] = []int{1}
	}
	m := NewMRF(task)
	if m.Name() != "MRF" {
		t.Errorf("name = %q", m.Name())
	}
	s0 := m.Scores(0)
	s6 := m.Scores(6)
	if s0[0] <= s0[1] {
		t.Errorf("clique-0 member: P(f0)=%v <= P(f1)=%v", s0[0], s0[1])
	}
	if s6[1] <= s6[0] {
		t.Errorf("clique-1 member: P(f1)=%v <= P(f0)=%v", s6[1], s6[0])
	}
}

func TestProdistinGroupsByNeighborhood(t *testing.T) {
	// Two modules sharing no edges: proteins within a module have similar
	// neighborhoods; PRODISTIN must predict module-consistent functions.
	g := graph.New(12)
	task := NewTask(g, 2)
	// Module A: vertices 0..5 densely wired; B: 6..11.
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			g.AddEdge(i, j)
			g.AddEdge(6+i, 6+j)
		}
	}
	for i := 0; i < 6; i++ {
		task.Functions[i] = []int{0}
		task.Functions[6+i] = []int{1}
	}
	pr := NewProdistin(task)
	if pr.Name() != "PRODISTIN" {
		t.Errorf("name = %q", pr.Name())
	}
	s := pr.Scores(0)
	if s[0] <= s[1] {
		t.Errorf("module A member: score(f0)=%v <= score(f1)=%v", s[0], s[1])
	}
	s = pr.Scores(7)
	if s[1] <= s[0] {
		t.Errorf("module B member: score(f1)=%v <= score(f0)=%v", s[1], s[0])
	}
}

func TestCzekanowskiDiceProperties(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(4, 0)
	task := NewTask(g, 1)
	// 0 and 1 share neighbors {2,3}: much closer than 1 and 4, which share
	// nothing.
	d01 := czekanowskiDice(task, 0, 1)
	d14 := czekanowskiDice(task, 1, 4)
	if d01 >= d14 {
		t.Errorf("D(0,1)=%v should be < D(1,4)=%v", d01, d14)
	}
	if d14 != 1 {
		t.Errorf("disjoint neighborhoods: D=%v, want 1", d14)
	}
	if d := czekanowskiDice(task, 2, 2); d != 0 {
		t.Errorf("self distance = %v", d)
	}
}

func TestLabeledMotifPredictor(t *testing.T) {
	// One labeled motif (an edge pattern) with 5 occurrences: position 0
	// proteins carry function 0, position 1 proteins carry function 1.
	// A query protein at position 0 must be scored f0 > f1.
	g := graph.New(10)
	task := NewTask(g, 2)
	var occs [][]int32
	for i := 0; i < 5; i++ {
		a, b := int32(2*i), int32(2*i+1)
		g.AddEdge(int(a), int(b))
		occs = append(occs, []int32{a, b})
		task.Functions[a] = []int{0}
		task.Functions[b] = []int{1}
	}
	lm := NewLabeledMotif(task, []MotifInput{{
		Size: 2, Occurrences: occs, Frequency: 5, Uniqueness: 1,
	}})
	if lm.Name() != "LabeledMotif" {
		t.Errorf("name = %q", lm.Name())
	}
	if lm.Coverage() != 10 {
		t.Errorf("coverage = %d", lm.Coverage())
	}
	s := lm.Scores(0) // protein 0 sits at position 0
	if s[0] <= s[1] {
		t.Errorf("position-0 protein: f0=%v <= f1=%v", s[0], s[1])
	}
	if s[0] != 1 {
		t.Errorf("normalized top score = %v, want 1", s[0])
	}
}

func TestLabeledMotifExcludesOwnAnnotation(t *testing.T) {
	// A single occurrence: the only evidence at the query's position is the
	// query itself, so its scores must be zero at its own function.
	g := graph.New(2)
	g.AddEdge(0, 1)
	task := NewTask(g, 2)
	task.Functions[0] = []int{0}
	task.Functions[1] = []int{1}
	lm := NewLabeledMotif(task, []MotifInput{{
		Size: 2, Occurrences: [][]int32{{0, 1}}, Frequency: 1, Uniqueness: 1,
	}})
	s := lm.Scores(0)
	if s[0] != 0 {
		t.Errorf("self-evidence leaked: %v", s)
	}
}

func TestLabeledMotifLMSWeighting(t *testing.T) {
	// Two same-size motifs, one with double the frequency*uniqueness: the
	// stronger motif dominates the query's score.
	g := graph.New(20)
	task := NewTask(g, 2)
	var strong, weak [][]int32
	for i := 0; i < 4; i++ {
		a, b := int32(2*i), int32(2*i+1)
		g.AddEdge(int(a), int(b))
		strong = append(strong, []int32{a, b})
		task.Functions[a] = []int{0}
	}
	for i := 4; i < 6; i++ {
		a, b := int32(2*i), int32(2*i+1)
		g.AddEdge(int(a), int(b))
		weak = append(weak, []int32{a, b})
		task.Functions[a] = []int{1}
	}
	// Query protein 18 appears at position 0 in one occurrence of each.
	strong = append(strong, []int32{18, 19})
	weak = append(weak, []int32{18, 19})
	lm := NewLabeledMotif(task, []MotifInput{
		{Size: 2, Occurrences: strong, Frequency: 5, Uniqueness: 1.0},
		{Size: 2, Occurrences: weak, Frequency: 3, Uniqueness: 0.5},
	})
	s := lm.Scores(18)
	if s[0] <= s[1] {
		t.Errorf("stronger motif should dominate: %v", s)
	}
}

func TestLMSNormalization(t *testing.T) {
	// Eq. 4: within each motif size, the strongest motif has LMS = 1.
	g := graph.New(8)
	task := NewTask(g, 2)
	lp := NewLabeledMotif(task, []MotifInput{
		{Size: 2, Occurrences: nil, Frequency: 10, Uniqueness: 1.0}, // s*f = 10
		{Size: 2, Occurrences: nil, Frequency: 4, Uniqueness: 0.5},  // s*f = 2
		{Size: 3, Occurrences: nil, Frequency: 3, Uniqueness: 1.0},  // own size class
	})
	if lp.lms[0] != 1 {
		t.Errorf("strongest size-2 LMS = %v, want 1", lp.lms[0])
	}
	if math.Abs(lp.lms[1]-0.2) > 1e-12 {
		t.Errorf("weaker size-2 LMS = %v, want 0.2", lp.lms[1])
	}
	if lp.lms[2] != 1 {
		t.Errorf("sole size-3 LMS = %v, want 1", lp.lms[2])
	}
}

func TestPriorsEmptyTask(t *testing.T) {
	g := graph.New(3)
	task := NewTask(g, 2)
	for _, p := range task.Priors() {
		if p != 0 {
			t.Errorf("empty task priors = %v", task.Priors())
		}
	}
}
