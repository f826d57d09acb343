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

// Figure6Config sizes the Figure-6 pipeline (mine -> null model -> label).
type Figure6Config struct {
	Yeast dataset.YeastConfig
	Mine  motif.Config
	Null  motif.UniquenessConfig
	Label label.Config
	// MinUniqueness filters motifs before labeling (paper: 0.95).
	MinUniqueness float64
	// Branches selects how many GO branches to label with (paper: 3).
	Branches int
}

// DefaultFigure6Config runs at the paper's network scale with mining
// parameters adapted to the beam miner (see DESIGN.md).
func DefaultFigure6Config() Figure6Config {
	mine := motif.DefaultConfig()
	mine.MinFreq = 30
	mine.BeamWidth = 80
	mine.MaxOccPerClass = 250
	null := motif.DefaultUniquenessConfig()
	null.Networks = 5
	null.MaxSteps = 300_000
	lab := label.DefaultConfig()
	lab.MaxOccurrences = 120
	return Figure6Config{
		Yeast:         dataset.DefaultYeastConfig(),
		Mine:          mine,
		Null:          null,
		Label:         lab,
		MinUniqueness: 0.95,
		Branches:      3,
	}
}

// QuickFigure6Config is a reduced-scale preset for tests and benchmarks.
func QuickFigure6Config() Figure6Config {
	cfg := DefaultFigure6Config()
	cfg.Yeast.Proteins = 900
	cfg.Yeast.Edges = 1600
	cfg.Yeast.TermsPerBranch = 120
	cfg.Yeast.Templates = []dataset.TemplateSpec{
		{Size: 4, Edges: 1, Instances: 30, PoolSize: 12},
		{Size: 6, Edges: 2, Instances: 30, PoolSize: 18},
		{Size: 8, Edges: 2, Instances: 30, PoolSize: 24},
		{Size: 10, Edges: 3, Instances: 30, PoolSize: 30},
	}
	cfg.Mine.MaxSize = 10
	cfg.Mine.MinFreq = 20
	cfg.Mine.BeamWidth = 40
	cfg.Mine.MaxOccPerClass = 150
	cfg.Null.Networks = 3
	cfg.Null.MaxSteps = 100_000
	cfg.Label.Sigma = 8
	cfg.Label.MaxOccurrences = 50
	cfg.Branches = 2
	return cfg
}

// Figure6Result is the labeled-motif size distribution plus the Section-4
// headline statistics.
type Figure6Result struct {
	// CountBySize[k] = number of labeled network motifs with k vertices.
	CountBySize map[int]int
	// MinedBySize and UniqueBySize trace the pipeline per size.
	MinedBySize, UniqueBySize map[int]int
	// BeamWidth is the miner's class cap per size (0 = none). A size whose
	// mined count reached it is bounded by the beam, not by the network.
	BeamWidth int
	// UnlabeledMotifs is the count of unique unlabeled motifs (paper: 1367).
	UnlabeledMotifs int
	// LabeledMotifs is the total labeled motif count (paper: 3842).
	LabeledMotifs int
	// MinedClasses is the pre-uniqueness class count.
	MinedClasses int
	// Network statistics for the Section-4 report.
	Proteins, Edges   int
	AnnotatedProteins int
	// PeakSize is the motif size with the most labeled motifs.
	PeakSize int
	// MesoFraction is the fraction of labeled motifs with >= 10 vertices.
	MesoFraction float64
}

// Figure6 runs the whole pipeline on the synthetic interactome: mine
// motifs to meso-scale, keep the unique ones, and label them against each
// GO branch, reporting the size distribution of labeled motifs.
func Figure6(cfg Figure6Config) *Figure6Result {
	y := dataset.NewYeast(cfg.Yeast)
	mined := motif.Find(y.Network, cfg.Mine)
	unique := motif.ScoreUnique(y.Network, mined, cfg.Null, cfg.MinUniqueness)

	res := &Figure6Result{
		CountBySize:       map[int]int{},
		MinedBySize:       map[int]int{},
		UniqueBySize:      map[int]int{},
		BeamWidth:         cfg.Mine.BeamWidth,
		UnlabeledMotifs:   len(unique),
		MinedClasses:      len(mined),
		Proteins:          y.Network.N(),
		Edges:             y.Network.M(),
		AnnotatedProteins: y.Corpora[0].NumAnnotated(),
	}
	for _, m := range mined {
		res.MinedBySize[m.Size()]++
	}
	for _, m := range unique {
		res.UniqueBySize[m.Size()]++
	}
	branches := cfg.Branches
	if branches < 1 {
		branches = 1
	}
	if branches > 3 {
		branches = 3
	}
	// Label every (branch, motif) pair concurrently: job j writes only its
	// own slot, and the serial aggregation below walks slots in job order,
	// so the tallies match the old nested loops exactly.
	labelers := make([]*label.Labeler, branches)
	for b := 0; b < branches; b++ {
		labelers[b] = label.NewLabeler(y.Corpora[b], cfg.Label)
	}
	slots := make([][]int, branches*len(unique))
	par.Do(len(slots), par.Workers(cfg.Label.Parallelism), func(j int) {
		b, i := j/len(unique), j%len(unique)
		for _, lm := range labelers[b].LabelMotif(unique[i]) {
			slots[j] = append(slots[j], lm.Size())
		}
	})
	for _, sizes := range slots {
		for _, size := range sizes {
			res.CountBySize[size]++
			res.LabeledMotifs++
		}
	}
	best, bestC := 0, -1
	meso := 0
	for size, c := range res.CountBySize {
		if c > bestC || (c == bestC && size > best) {
			best, bestC = size, c
		}
		if size >= 10 {
			meso += c
		}
	}
	res.PeakSize = best
	if res.LabeledMotifs > 0 {
		res.MesoFraction = float64(meso) / float64(res.LabeledMotifs)
	}
	return res
}

// WriteText renders the distribution as an ASCII bar chart plus the
// headline statistics, the textual analogue of Figure 6.
func (r *Figure6Result) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "Section 4 statistics (paper: 4141 proteins, 7095 edges, 3554 annotated; 1367 unlabeled -> 3842 labeled motifs)\n")
	fmt.Fprintf(bw, "  proteins=%d edges=%d annotated=%d\n", r.Proteins, r.Edges, r.AnnotatedProteins)
	fmt.Fprintf(bw, "  mined classes=%d unique motifs=%d labeled motifs=%d (x%.2f)\n",
		r.MinedClasses, r.UnlabeledMotifs, r.LabeledMotifs, r.ratio())
	fmt.Fprintf(bw, "Figure 6: labeled network motif distribution (peak size %d, meso fraction %.2f)\n",
		r.PeakSize, r.MesoFraction)
	fmt.Fprintf(bw, "  pipeline by size (mined/unique/labeled):\n")
	beamed := false
	for size := 2; size <= 25; size++ {
		if r.MinedBySize[size]+r.UniqueBySize[size]+r.CountBySize[size] == 0 {
			continue
		}
		mark := ""
		if r.BeamWidth > 0 && r.MinedBySize[size] >= r.BeamWidth {
			mark, beamed = " *", true
		}
		fmt.Fprintf(bw, "    size %2d: %4d / %4d / %4d%s\n",
			size, r.MinedBySize[size], r.UniqueBySize[size], r.CountBySize[size], mark)
	}
	if beamed {
		fmt.Fprintf(bw, "    * mined count reached the beam width %d: the beam, not the network, sets it\n", r.BeamWidth)
	}
	maxC := 1
	maxSize := 0
	for size, c := range r.CountBySize {
		if c > maxC {
			maxC = c
		}
		if size > maxSize {
			maxSize = size
		}
	}
	for size := 2; size <= maxSize; size++ {
		c := r.CountBySize[size]
		if c == 0 {
			continue
		}
		bar := make([]byte, 0, 40)
		n := c * 40 / maxC
		for i := 0; i < n; i++ {
			bar = append(bar, '#')
		}
		fmt.Fprintf(bw, "  size %2d | %4d %s\n", size, c, bar)
	}
	return bw.Flush()
}

func (r *Figure6Result) ratio() float64 {
	if r.UnlabeledMotifs == 0 {
		return 0
	}
	return float64(r.LabeledMotifs) / float64(r.UnlabeledMotifs)
}
