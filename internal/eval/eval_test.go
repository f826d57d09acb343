package eval

import (
	"math"
	"strings"
	"testing"

	"lamofinder/internal/graph"
	"lamofinder/internal/predict"
)

// oracle scores the true functions of each protein perfectly.
type oracle struct{ t *predict.Task }

func (o oracle) Name() string { return "oracle" }
func (o oracle) Scores(p int) []float64 {
	s := make([]float64, o.t.NumFunctions)
	for _, f := range o.t.Functions[p] {
		s[f] = 1
	}
	return s
}

// antiOracle scores everything except the true functions.
type antiOracle struct{ t *predict.Task }

func (o antiOracle) Name() string { return "anti" }
func (o antiOracle) Scores(p int) []float64 {
	s := make([]float64, o.t.NumFunctions)
	for f := range s {
		s[f] = 1
	}
	for _, fn := range o.t.Functions[p] {
		s[fn] = 0
	}
	return s
}

func singleFunctionTask() *predict.Task {
	g := graph.New(10)
	t := predict.NewTask(g, 4)
	for p := 0; p < 10; p++ {
		t.Functions[p] = []int{p % 4}
	}
	return t
}

func TestOraclePerfectAtK1(t *testing.T) {
	task := singleFunctionTask()
	c := LeaveOneOut(task, oracle{task}, 0)
	if c.Method != "oracle" {
		t.Errorf("method = %q", c.Method)
	}
	p1 := c.Points[0]
	if p1.K != 1 || p1.Precision != 1 || p1.Recall != 1 {
		t.Errorf("oracle at k=1: %+v", p1)
	}
	// Oracle only scores the true function > 0, so further ks add no
	// predictions; precision stays 1.
	last := c.Points[len(c.Points)-1]
	if last.Precision != 1 || last.Recall != 1 {
		t.Errorf("oracle at k=max: %+v", last)
	}
}

func TestAntiOracleZeroPrecision(t *testing.T) {
	task := singleFunctionTask()
	c := LeaveOneOut(task, antiOracle{task}, 0)
	p1 := c.Points[0]
	if p1.Precision != 0 || p1.Recall != 0 {
		t.Errorf("anti-oracle at k=1: %+v", p1)
	}
	// Zero-scored functions are never predicted, so even at k=4 the true
	// function (scored 0 by the anti-oracle) stays unpredicted.
	p4 := c.Points[3]
	if p4.Recall != 0 || p4.Precision != 0 {
		t.Errorf("anti-oracle at k=4: %+v", p4)
	}
}

func TestRecallMonotonicInK(t *testing.T) {
	task := singleFunctionTask()
	for _, s := range []predict.Scorer{oracle{task}, antiOracle{task}} {
		c := LeaveOneOut(task, s, 0)
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].Recall < c.Points[i-1].Recall-1e-12 {
				t.Errorf("%s: recall decreased at k=%d", s.Name(), i+1)
			}
		}
	}
}

func TestF1AndSummaries(t *testing.T) {
	p := PRPoint{K: 1, Precision: 0.5, Recall: 0.5}
	if math.Abs(p.F1()-0.5) > 1e-12 {
		t.Errorf("F1 = %v", p.F1())
	}
	if (PRPoint{}).F1() != 0 {
		t.Error("zero point F1 should be 0")
	}
	c := Curve{Method: "x", Points: []PRPoint{
		{K: 1, Precision: 1, Recall: 0.2},
		{K: 2, Precision: 0.5, Recall: 0.6},
	}}
	if got := c.AveragePrecision(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("AP = %v", got)
	}
	if c.BestF1() <= 0.3 {
		t.Errorf("BestF1 = %v", c.BestF1())
	}
	if (Curve{}).AveragePrecision() != 0 {
		t.Error("empty curve AP should be 0")
	}
}

func TestFormatCurves(t *testing.T) {
	task := singleFunctionTask()
	curves := []Curve{LeaveOneOut(task, oracle{task}, 2), LeaveOneOut(task, antiOracle{task}, 2)}
	txt := FormatCurves(curves)
	if !strings.Contains(txt, "oracle") || !strings.Contains(txt, "anti") {
		t.Errorf("format missing methods:\n%s", txt)
	}
	lines := strings.Split(strings.TrimSpace(txt), "\n")
	if len(lines) != 4 { // header, subheader, k=1, k=2
		t.Errorf("format has %d lines:\n%s", len(lines), txt)
	}
	if FormatCurves(nil) == "" {
		t.Error("empty format should still render headers")
	}
}

func TestUnannotatedProteinsSkipped(t *testing.T) {
	g := graph.New(4)
	task := predict.NewTask(g, 2)
	task.Functions[0] = []int{0}
	// proteins 1..3 unannotated
	c := LeaveOneOut(task, oracle{task}, 0)
	// total true = 1; recall at k=1 must be 1 (only protein 0 evaluated).
	if c.Points[0].Recall != 1 {
		t.Errorf("recall = %v", c.Points[0].Recall)
	}
}

func TestAUCOracleAndAnti(t *testing.T) {
	task := singleFunctionTask()
	per, macro := AUC(task, oracle{task})
	if macro < 0.999 {
		t.Errorf("oracle macro AUC = %v, want 1", macro)
	}
	for f, a := range per {
		if a < 0.999 {
			t.Errorf("oracle AUC[%d] = %v", f, a)
		}
	}
	_, macroAnti := AUC(task, antiOracle{task})
	if macroAnti > 0.001 {
		t.Errorf("anti-oracle macro AUC = %v, want 0", macroAnti)
	}
}

func TestAUCDegenerateFunction(t *testing.T) {
	g := graph.New(4)
	task := predict.NewTask(g, 2)
	task.Functions[0] = []int{0}
	task.Functions[1] = []int{0} // function 1 has no positives
	per, _ := AUC(task, oracle{task})
	if per[1] != 0.5 {
		t.Errorf("no-positive function AUC = %v, want 0.5", per[1])
	}
	// Function 0 has no negatives among annotated -> 0.5 too.
	if per[0] != 0.5 {
		t.Errorf("no-negative function AUC = %v, want 0.5", per[0])
	}
}

func TestAUCTiesMidrank(t *testing.T) {
	// Constant scorer: AUC must be exactly 0.5 by midrank handling.
	g := graph.New(6)
	task := predict.NewTask(g, 1)
	for p := 0; p < 6; p++ {
		if p < 3 {
			task.Functions[p] = []int{0}
		} else {
			task.Functions[p] = []int{} // unannotated... need negatives annotated
		}
	}
	// Make 3 negatives annotated with a dummy second function.
	task2 := predict.NewTask(g, 2)
	for p := 0; p < 6; p++ {
		if p < 3 {
			task2.Functions[p] = []int{0}
		} else {
			task2.Functions[p] = []int{1}
		}
	}
	per, _ := AUC(task2, constScorer{task2})
	if math.Abs(per[0]-0.5) > 1e-12 {
		t.Errorf("tied-score AUC = %v, want 0.5", per[0])
	}
}

type constScorer struct{ t *predict.Task }

func (c constScorer) Name() string { return "const" }
func (c constScorer) Scores(p int) []float64 {
	return make([]float64, c.t.NumFunctions)
}
