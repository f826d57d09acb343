// Package experiments regenerates every table and figure of the paper's
// evaluation: the worked-example Tables 1, 3 and 4; the Section-4 mining
// statistics; Figure 6 (labeled motif size distribution); Figure 7 (example
// labeled motifs); and Figure 9 (precision/recall of the five prediction
// methods). Each experiment returns a printable result consumed by
// cmd/experiments and by the repository-level benchmarks, and EXPERIMENTS.md
// records paper-vs-measured values.
package experiments

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"lamofinder/internal/dataset"
	"lamofinder/internal/label"
	"lamofinder/internal/ontology"
)

// Table1Row is one row of the reproduced Table 1.
type Table1Row struct {
	Term            string
	Direct          int
	Inclusive       int
	Weight          float64
	PaperInclusive  int
	PaperWeight     float64
	MatchesPaper    bool
	KnownDeviation  bool
	DeviationReason string
}

// Table1Result is the reproduced Table 1.
type Table1Result struct{ Rows []Table1Row }

// Table1 recomputes GO term weights for the paper's Figure-1 example.
func Table1() *Table1Result {
	pe := dataset.NewPaperExample()
	incl := pe.Ontology.InclusiveCounts(pe.Direct)
	w := pe.Weights()
	paperIncl := map[string]int{
		"G01": 585, "G02": 415, "G03": 475, "G04": 245, "G05": 280,
		"G06": 250, "G07": 100, "G08": 135, "G09": 100, "G10": 90, "G11": 20,
	}
	paperW := map[string]float64{
		"G01": 1.00, "G02": 0.71, "G03": 0.81, "G04": 0.42, "G05": 0.48,
		"G06": 0.43, "G07": 0.17, "G08": 0.23, "G09": 0.17, "G10": 0.15, "G11": 0.03,
	}
	res := &Table1Result{}
	for i := 1; i <= 11; i++ {
		id := fmt.Sprintf("G%02d", i)
		t := pe.Term(id)
		row := Table1Row{
			Term:           id,
			Direct:         pe.Direct[t],
			Inclusive:      incl[t],
			Weight:         w[t],
			PaperInclusive: paperIncl[id],
			PaperWeight:    paperW[id],
		}
		row.MatchesPaper = row.Inclusive == row.PaperInclusive &&
			abs(row.Weight-row.PaperWeight) <= 0.005
		if !row.MatchesPaper && id == "G05" {
			row.KnownDeviation = true
			row.DeviationReason = "paper's Table 1 omits G08 under G05; Tables 3-4 and the ST example require the G08 is-a G05 edge"
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// WriteText renders the result.
func (r *Table1Result) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "Table 1: GO term weights (Figure-1 example ontology)\n")
	fmt.Fprintf(bw, "%-5s %7s %10s %7s | %10s %7s  %s\n",
		"term", "direct", "inclusive", "weight", "paper-inc", "paper-w", "status")
	for _, row := range r.Rows {
		status := "match"
		if !row.MatchesPaper {
			if row.KnownDeviation {
				status = "documented deviation"
			} else {
				status = "MISMATCH"
			}
		}
		fmt.Fprintf(bw, "%-5s %7d %10d %7.2f | %10d %7.2f  %s\n",
			row.Term, row.Direct, row.Inclusive, row.Weight,
			row.PaperInclusive, row.PaperWeight, status)
	}
	return bw.Flush()
}

// Table3Row is one SV pairing row of the reproduced Table 3.
type Table3Row struct {
	A, B    string // protein names
	SV      float64
	PaperSV float64
}

// Table3Result reproduces Table 3: vertex similarities and SO(o1,o2).
type Table3Result struct {
	Rows    []Table3Row
	SO      float64
	PaperSO float64
	Pairing []int
}

// Table3 recomputes the occurrence similarity between o1 and o2.
func Table3() *Table3Result {
	pe := dataset.NewPaperExample()
	s := label.NewSim(pe.Ontology, pe.Weights())
	res := &Table3Result{PaperSO: 0.87}
	pv := func(i int) int { return i - 1 }
	rows := []struct {
		a, b  int
		paper float64
	}{
		{1, 12, 1.00}, {1, 10, 0.99}, {2, 9, 1.00}, {2, 11, 0.76},
		{3, 10, 0.80}, {3, 12, 0.45}, {4, 11, 0.69}, {4, 9, 0.99},
	}
	for _, r := range rows {
		sv := s.Vertex(pe.Corpus.Terms(pv(r.a)), pe.Corpus.Terms(pv(r.b)))
		res.Rows = append(res.Rows, Table3Row{
			A: fmt.Sprintf("p%d", r.a), B: fmt.Sprintf("p%d", r.b),
			SV: sv, PaperSV: r.paper,
		})
	}
	o1, o2 := pe.Motif.Occurrences[0], pe.Motif.Occurrences[1]
	labelsOf := func(occ []int32) [][]int32 {
		out := make([][]int32, len(occ))
		for i, p := range occ {
			out[i] = pe.Corpus.Terms(int(p))
		}
		return out
	}
	sym := label.NewSymmetry(pe.Motif.Pattern)
	res.SO, res.Pairing = s.Occurrence(labelsOf(o1), labelsOf(o2), sym)
	return res
}

// WriteText renders the result.
func (r *Table3Result) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "Table 3: similarity between occurrences o1 and o2\n")
	fmt.Fprintf(bw, "%-5s %-5s %8s %9s\n", "o1", "o2", "SV", "paper-SV")
	for _, row := range r.Rows {
		fmt.Fprintf(bw, "%-5s %-5s %8.2f %9.2f\n", row.A, row.B, row.SV, row.PaperSV)
	}
	fmt.Fprintf(bw, "SO(o1,o2) = %.3f (paper: %.2f), best pairing %v\n", r.SO, r.PaperSO, r.Pairing)
	return bw.Flush()
}

// Table4Row is one vertex of the reproduced Table 4.
type Table4Row struct {
	O1, O2 []string // input annotation ids
	Common []string // least general labels
	Paper  []string
	Match  bool
}

// Table4Result reproduces Table 4: minimum common father labels.
type Table4Result struct{ Rows []Table4Row }

// Table4 recomputes the least-general labels for the o1/o2 vertex pairs.
func Table4() *Table4Result {
	pe := dataset.NewPaperExample()
	o := pe.Ontology
	idx := ontology.NewLCAIndex(o, pe.Weights())
	mk := func(ids ...string) []int32 {
		out := make([]int32, len(ids))
		for i, id := range ids {
			out[i] = int32(pe.Term(id))
		}
		return out
	}
	rows := []struct {
		a, b, paper []string
	}{
		{[]string{"G04", "G09", "G10"}, []string{"G09"}, []string{"G02", "G09", "G05"}},
		{[]string{"G03", "G10"}, []string{"G10", "G11"}, []string{"G03", "G10", "G08"}},
		{[]string{"G08"}, []string{"G03", "G05", "G07"}, []string{"G03", "G05", "G04"}},
		{[]string{"G07", "G09"}, []string{"G05"}, []string{"G02", "G05"}},
	}
	res := &Table4Result{}
	for _, r := range rows {
		got := label.LeastGeneral(idx, mk(r.a...), mk(r.b...), 0)
		ids := make([]string, len(got))
		for i, t := range got {
			ids[i] = o.ID(int(t))
		}
		row := Table4Row{O1: r.a, O2: r.b, Common: ids, Paper: r.paper}
		row.Match = sameSet(ids, r.paper)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// WriteText renders the result.
func (r *Table4Result) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "Table 4: minimum common father labels of o1/o2 vertices\n")
	for i, row := range r.Rows {
		status := "match"
		if !row.Match {
			status = "MISMATCH"
		}
		fmt.Fprintf(bw, "v%d: o1=%s o2=%s -> %s (paper %s) %s\n",
			i+1, strings.Join(row.O1, ","), strings.Join(row.O2, ","),
			strings.Join(row.Common, ","), strings.Join(row.Paper, ","), status)
	}
	return bw.Flush()
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]bool{}
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
