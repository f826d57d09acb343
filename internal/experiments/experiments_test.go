package experiments

import (
	"math"
	"strings"
	"testing"

	"lamofinder/internal/dataset"
	"lamofinder/internal/eval"
	"lamofinder/internal/label"
)

func TestTable1MatchesPaperExceptKnownDeviation(t *testing.T) {
	r := Table1()
	if len(r.Rows) != 11 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MatchesPaper {
			continue
		}
		if !row.KnownDeviation {
			t.Errorf("undocumented mismatch on %s: incl %d vs %d, w %.2f vs %.2f",
				row.Term, row.Inclusive, row.PaperInclusive, row.Weight, row.PaperWeight)
		}
	}
	// Exactly one documented deviation (G05).
	dev := 0
	for _, row := range r.Rows {
		if row.KnownDeviation {
			dev++
			if row.Term != "G05" {
				t.Errorf("unexpected deviation on %s", row.Term)
			}
		}
	}
	if dev != 1 {
		t.Errorf("deviations = %d, want 1", dev)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(sb.String(), "documented deviation") {
		t.Error("text output missing deviation note")
	}
	checkText(t, "table1", r)
}

func TestTable3CloseToPaper(t *testing.T) {
	r := Table3()
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if math.Abs(row.SV-row.PaperSV) > 0.15 {
			t.Errorf("SV(%s,%s) = %.3f, paper %.2f", row.A, row.B, row.SV, row.PaperSV)
		}
	}
	// Our automorphism search may find a better pairing than the paper's
	// per-set heuristic, so SO >= paper - tolerance.
	if r.SO < r.PaperSO-0.05 {
		t.Errorf("SO = %.3f below paper %.2f", r.SO, r.PaperSO)
	}
	if r.SO > 1 {
		t.Errorf("SO = %.3f out of range", r.SO)
	}
	checkText(t, "table3", r)
}

func TestTable4AllRowsMatch(t *testing.T) {
	r := Table4()
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i, row := range r.Rows {
		if !row.Match {
			t.Errorf("row %d: got %v, paper %v", i+1, row.Common, row.Paper)
		}
	}
	checkText(t, "table4", r)
}

func miniFigure6Config() Figure6Config {
	cfg := QuickFigure6Config()
	cfg.Yeast.Proteins = 450
	cfg.Yeast.Edges = 800
	cfg.Yeast.TermsPerBranch = 80
	cfg.Yeast.Templates = []dataset.TemplateSpec{
		{Size: 4, Edges: 1, Instances: 25, PoolSize: 12},
		{Size: 6, Edges: 2, Instances: 25, PoolSize: 18},
	}
	cfg.Mine.MaxSize = 6
	cfg.Mine.MinFreq = 15
	cfg.Null.Networks = 2
	cfg.Null.MaxSteps = 50_000
	cfg.Branches = 1
	return cfg
}

func TestFigure6PipelineMini(t *testing.T) {
	r := Figure6(miniFigure6Config())
	if r.UnlabeledMotifs == 0 {
		t.Fatal("no unique motifs survived the null model")
	}
	if r.LabeledMotifs == 0 {
		t.Fatal("no labeled motifs")
	}
	if r.LabeledMotifs < r.UnlabeledMotifs {
		t.Logf("note: labeled (%d) < unlabeled (%d); paper has ~2.8x",
			r.LabeledMotifs, r.UnlabeledMotifs)
	}
	total := 0
	for size, c := range r.CountBySize {
		if size < 2 || c < 0 {
			t.Errorf("bad histogram entry %d:%d", size, c)
		}
		total += c
	}
	if total != r.LabeledMotifs {
		t.Errorf("histogram sum %d != labeled %d", total, r.LabeledMotifs)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(sb.String(), "Figure 6") {
		t.Error("text output malformed")
	}
	checkText(t, "fig6_mini", r)
}

// Curve returns the named method's curve, or nil.
func (r *Figure9Result) Curve(name string) *eval.Curve {
	for i := range r.Curves {
		if r.Curves[i].Method == name {
			return &r.Curves[i]
		}
	}
	return nil
}

func TestFigure9PipelineMini(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test skipped in -short mode")
	}
	cfg := QuickFigure9Config()
	cfg.MIPS.Proteins = 400
	cfg.MIPS.Edges = 560
	cfg.Null.Networks = 2
	cfg.Label.MinDirect = 8 // ~12 direct per category at 400 proteins
	r := Figure9(cfg)
	if len(r.Curves) != 5 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	lm := r.Curve("LabeledMotif")
	if lm == nil {
		t.Fatal("LabeledMotif curve missing")
	}
	if r.LabeledMotifs == 0 {
		t.Fatal("no labeled motifs in pipeline")
	}
	// The paper's headline: the labeled-motif method has the best precision
	// at its operating points. Compare P@1 against every baseline.
	for _, c := range r.Curves {
		if c.Method == "LabeledMotif" {
			continue
		}
		if lm.Points[0].Precision < c.Points[0].Precision {
			t.Errorf("LabeledMotif P@1 %.3f below %s %.3f",
				lm.Points[0].Precision, c.Method, c.Points[0].Precision)
		}
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(sb.String(), "PRODISTIN") {
		t.Error("text output missing methods")
	}
	checkText(t, "fig9_mini", r)
}

func TestFigure7PipelineMini(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test skipped in -short mode")
	}
	cfg := DefaultFigure7Config()
	cfg.Yeast.Proteins = 500
	cfg.Yeast.Edges = 900
	cfg.Yeast.TermsPerBranch = 80
	cfg.Yeast.Templates = []dataset.TemplateSpec{
		{Size: 5, Edges: 2, Instances: 25, PoolSize: 15},
		{Size: 6, Edges: 2, Instances: 25, PoolSize: 18},
	}
	cfg.Mine.MaxSize = 6
	cfg.Mine.MinFreq = 15
	cfg.Label.Sigma = 6
	r := Figure7(cfg)
	if r.UniCount+r.NonUniCount == 0 {
		t.Error("no functional exhibits found")
	}
	if r.ParallelCount == 0 {
		t.Error("no parallel function+location exhibit found")
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(sb.String(), "g1-like") {
		t.Error("text output malformed")
	}
	checkText(t, "fig7_mini", r)
}

// TestLabelKind: a motif is uni- or non-uni-labeled only when at least two
// of its vertices carry labels; one labeled vertex among unknowns is
// neither.
func TestLabelKind(t *testing.T) {
	cases := []struct {
		labels [][]int32
		want   string
	}{
		{[][]int32{nil, nil, nil}, "other"},
		{[][]int32{{3}, nil, nil, nil}, "other"},
		{[][]int32{nil, {3, 5}, nil}, "other"},
		{[][]int32{{3}, nil, {3}}, "uni"},
		{[][]int32{{3, 5}, {5}, {3}}, "uni"},
		{[][]int32{{3}, nil, {2}}, "multi"},
		{[][]int32{{3}, {3}, {2}}, "multi"},
	}
	for _, tc := range cases {
		if got := labelKind(&label.LabeledMotif{Labels: tc.labels}); got != tc.want {
			t.Errorf("labelKind(%v) = %q, want %q", tc.labels, got, tc.want)
		}
	}
}

func TestFigure8Demonstration(t *testing.T) {
	r := Figure8()
	if r.Protein != "p1" {
		t.Errorf("protein = %q", r.Protein)
	}
	if r.TopFunction == "" || r.Score <= 0 {
		t.Fatalf("no prediction: %+v", r)
	}
	if !r.Correct {
		t.Errorf("top prediction %s not consistent with p1's annotations", r.TopFunction)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(sb.String(), "Figure 8") {
		t.Error("text output malformed")
	}
	checkText(t, "fig8", r)
}
