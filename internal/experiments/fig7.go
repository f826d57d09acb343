package experiments

import (
	"bufio"
	"fmt"
	"io"

	"lamofinder/internal/dataset"
	"lamofinder/internal/label"
	"lamofinder/internal/motif"
	"lamofinder/internal/par"
)

// Figure7Result collects example labeled motifs of the three kinds the
// paper's biologist validated: uni-labeled (all vertices share a function,
// like splicing complex g1), non-uni-labeled (distinct but related
// functions, like g2), and parallel-labeled (function plus cellular
// location, like g3).
type Figure7Result struct {
	UniLabeled      string
	NonUniLabeled   string
	ParallelLabeled string
	// Counts of each kind among all labeled motifs found.
	UniCount, NonUniCount, ParallelCount int
}

// Figure7Config sizes the example-motif search.
type Figure7Config struct {
	Yeast dataset.YeastConfig
	Mine  motif.Config
	Label label.Config
}

// DefaultFigure7Config runs on a mid-sized synthetic interactome; Figure 7
// needs examples, not census scale.
func DefaultFigure7Config() Figure7Config {
	mine := motif.DefaultConfig()
	mine.MaxSize = 8
	mine.MinFreq = 20
	mine.BeamWidth = 40
	mine.MaxOccPerClass = 120
	lab := label.DefaultConfig()
	lab.Sigma = 8
	lab.MaxOccurrences = 60
	ycfg := dataset.DefaultYeastConfig()
	ycfg.Proteins = 1200
	ycfg.Edges = 2100
	ycfg.TermsPerBranch = 150
	ycfg.Templates = []dataset.TemplateSpec{
		{Size: 5, Edges: 2, Instances: 35, PoolSize: 15},
		{Size: 6, Edges: 2, Instances: 35, PoolSize: 18},
		{Size: 7, Edges: 2, Instances: 35, PoolSize: 21},
	}
	return Figure7Config{Yeast: ycfg, Mine: mine, Label: lab}
}

// Figure7 mines and labels the synthetic interactome with both the process
// branch (functional labels) and the component branch (location labels),
// then classifies the labeled motifs into the paper's three exhibit kinds.
func Figure7(cfg Figure7Config) *Figure7Result {
	y := dataset.NewYeast(cfg.Yeast)
	mined := motif.Find(y.Network, cfg.Mine)
	// Figure 7 is about label structure, not over-representation; mark all
	// mined classes fully unique so labeling proceeds.
	for _, m := range mined {
		m.Uniqueness = 1
	}

	procLabeler := label.NewLabeler(y.Corpora[dataset.Process], cfg.Label)
	locLabeler := label.NewLabeler(y.Corpora[dataset.Component], cfg.Label)
	procO := y.Corpora[dataset.Process].Ontology()
	locO := y.Corpora[dataset.Component].Ontology()

	// Label each mined motif concurrently into its own slot; the exhibit
	// pass below walks slots in mined order, so "first found" picks the
	// same exhibits as the old serial loop.
	type fig7Slot struct {
		funcMotifs, locMotifs []*label.LabeledMotif
	}
	slots := make([]fig7Slot, len(mined))
	par.Do(len(mined), par.Workers(cfg.Label.Parallelism), func(i int) {
		fm := procLabeler.LabelMotif(mined[i])
		slots[i].funcMotifs = fm
		// Parallel labels: the same motif labeled on both branches.
		if len(fm) > 0 {
			slots[i].locMotifs = locLabeler.LabelMotif(mined[i])
		}
	})

	res := &Figure7Result{}
	for i := range slots {
		funcMotifs := slots[i].funcMotifs
		for _, lm := range funcMotifs {
			switch labelKind(lm) {
			case "uni":
				res.UniCount++
				if res.UniLabeled == "" {
					res.UniLabeled = lm.Describe(procO)
				}
			case "multi":
				res.NonUniCount++
				if res.NonUniLabeled == "" {
					res.NonUniLabeled = lm.Describe(procO)
				}
			}
		}
		// Parallel labels count only when both branches label a vertex.
		fm, lm := firstLabeled(funcMotifs), firstLabeled(slots[i].locMotifs)
		if fm != nil && lm != nil {
			res.ParallelCount++
			if res.ParallelLabeled == "" {
				res.ParallelLabeled = fmt.Sprintf("function: %s\n  location: %s",
					fm.Describe(procO), lm.Describe(locO))
			}
		}
	}
	return res
}

// labelKind classifies a labeled motif with at least two labeled vertices:
// "uni" when every labeled vertex shares a term with the first, "multi"
// when one of them has a label set disjoint from the first's. A motif with
// fewer than two labeled vertices is "other".
func labelKind(lm *label.LabeledMotif) string {
	var first []int32
	labeled := 0
	uni := true
	for _, ts := range lm.Labels {
		if len(ts) == 0 {
			continue
		}
		labeled++
		if first == nil {
			first = ts
		} else if !intersects(first, ts) {
			uni = false
		}
	}
	switch {
	case labeled < 2:
		return "other"
	case uni:
		return "uni"
	default:
		return "multi"
	}
}

// firstLabeled returns the first motif of ms with at least one labeled
// vertex, or nil when every motif is label-free.
func firstLabeled(ms []*label.LabeledMotif) *label.LabeledMotif {
	for _, lm := range ms {
		for _, ts := range lm.Labels {
			if len(ts) > 0 {
				return lm
			}
		}
	}
	return nil
}

func intersects(a, b []int32) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// WriteText renders the exhibits.
func (r *Figure7Result) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "Figure 7: example labeled network motifs\n")
	fmt.Fprintf(bw, "g1-like (uni-labeled, %d found):\n  %s\n", r.UniCount, orNone(r.UniLabeled))
	fmt.Fprintf(bw, "g2-like (non-uni-labeled, %d found):\n  %s\n", r.NonUniCount, orNone(r.NonUniLabeled))
	fmt.Fprintf(bw, "g3-like (function+location parallel labels, %d found):\n  %s\n",
		r.ParallelCount, orNone(r.ParallelLabeled))
	return bw.Flush()
}

func orNone(s string) string {
	if s == "" {
		return "(none found)"
	}
	return s
}
