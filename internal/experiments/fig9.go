package experiments

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"lamofinder/internal/dataset"
	"lamofinder/internal/eval"
	"lamofinder/internal/label"
	"lamofinder/internal/motif"
	"lamofinder/internal/obs"
	"lamofinder/internal/par"
	"lamofinder/internal/predict"
)

// Figure9Config sizes the prediction comparison.
type Figure9Config struct {
	MIPS dataset.MIPSConfig
	Mine motif.Config
	Null motif.UniquenessConfig
	// MinUniqueness filters motifs before labeling.
	MinUniqueness float64
	Label         label.Config
	// MaxK bounds the PR sweep (paper: top 13 categories).
	MaxK int
	// IncludeProdistin can be disabled for speed (its tree is O(n^3)).
	IncludeProdistin bool
	// IncludeGibbs adds the fuller Gibbs-sampling MRF as a sixth curve.
	IncludeGibbs bool
}

// DefaultFigure9Config runs at the paper's MIPS scale (1877 proteins, 2448
// interactions, 13 categories).
func DefaultFigure9Config() Figure9Config {
	mine := motif.DefaultConfig()
	mine.MaxSize = 7
	mine.MinFreq = 15
	mine.BeamWidth = 150
	mine.MaxOccPerClass = 600
	// At small sizes the frequency signal is informative; the density beam
	// is a meso-scale device (see Figure6Config).
	mine.DenseBeamFraction = 0
	null := motif.DefaultUniquenessConfig()
	null.Networks = 8
	null.MaxSteps = 1_500_000 // let small-pattern counts resolve exactly
	lab := label.DefaultConfig()
	lab.Sigma = 8
	lab.MaxOccurrences = 220
	return Figure9Config{
		MIPS:             dataset.DefaultMIPSConfig(),
		Mine:             mine,
		Null:             null,
		MinUniqueness:    0.6,
		Label:            lab,
		MaxK:             13,
		IncludeProdistin: true,
	}
}

// QuickFigure9Config is a reduced-scale preset for tests and benchmarks.
func QuickFigure9Config() Figure9Config {
	cfg := DefaultFigure9Config()
	cfg.MIPS.Proteins = 600
	cfg.MIPS.Edges = 820
	cfg.Mine.MinFreq = 10
	cfg.Mine.MaxOccPerClass = 120
	cfg.Null.Networks = 4
	cfg.Null.MaxSteps = 100_000
	cfg.Label.Sigma = 6
	cfg.Label.MaxOccurrences = 60
	// The informative-FC threshold must scale with the corpus: at 600
	// proteins the category terms collect ~18 direct annotations.
	cfg.Label.MinDirect = 10
	return cfg
}

// Figure9Result holds the PR curves of the five methods plus pipeline
// statistics.
type Figure9Result struct {
	Curves []eval.Curve
	// MacroAUC[method] is the macro-averaged per-function ROC AUC, an
	// extension metric alongside the paper's PR curves.
	MacroAUC map[string]float64
	// Pipeline statistics.
	MinedClasses, UniqueMotifs, LabeledMotifs int
	MotifCoverage                             int // proteins inside labeled motifs
	Proteins, Interactions, Annotated         int
}

// Mined bundles the output of the dataset→mine→uniqueness→label front half
// of the Figure-9 pipeline, shared by the offline experiment and the lamod
// artifact builder.
type Mined struct {
	MIPS    *dataset.MIPS
	Labeled []*label.LabeledMotif
	// MinedClasses and UniqueMotifs are pipeline statistics: isomorphism
	// classes found by the miner and classes surviving the uniqueness filter.
	MinedClasses, UniqueMotifs int
}

// MineLabeled builds the synthetic MIPS benchmark, mines its motifs, keeps
// the over-represented ones, and labels them with LaMoFinder against the
// functional-catalogue GO corpus — everything Figure 9 does before scoring,
// and everything `lamod build` packages into a serving artifact.
func MineLabeled(cfg Figure9Config) *Mined {
	return MineLabeledTraced(cfg, nil)
}

// MineLabeledTraced is MineLabeled with per-stage telemetry: census
// (motif mining), uniqueness (null-model scoring and filtering), labeling
// (LaMoFinder over the unique motifs) and clustering (the cumulative
// worker-busy agglomeration time inside labeling, so its wall column is
// summed across workers and can exceed the labeling stage's). A nil
// recorder disables all timing, including the clustering clock injected
// into the labeler.
func MineLabeledTraced(cfg Figure9Config, rec *obs.StageRecorder) *Mined {
	m := dataset.NewMIPS(cfg.MIPS)
	net := m.Task.Network

	st := rec.Start("census")
	mined := motif.Find(net, cfg.Mine)
	st.End(int64(len(mined)), par.Workers(0))

	st = rec.Start("uniqueness")
	motif.ScoreUniqueness(net, mined, cfg.Null)
	unique := motif.FilterUnique(mined, cfg.MinUniqueness)
	st.End(int64(len(unique)), par.Workers(cfg.Null.Parallelism))

	if rec != nil {
		// The labeling core sits in the determinism scope where wall-clock
		// reads are forbidden, so tracing injects the clock from here.
		cfg.Label.Now = time.Now
	}
	labeler := label.NewLabeler(m.Corpus, cfg.Label)
	st = rec.Start("labeling")
	labeled := labeler.LabelAll(unique)
	workers := par.Workers(cfg.Label.Parallelism)
	busy, occs := labeler.ClusterStats()
	st.EndWithBusy(int64(len(labeled)), workers, busy)
	if rec != nil {
		rec.Record(obs.StageStat{Name: "clustering", Wall: busy, Items: occs, Workers: workers})
	}
	return &Mined{
		MIPS:         m,
		Labeled:      labeled,
		MinedClasses: len(mined),
		UniqueMotifs: len(unique),
	}
}

// Figure9 regenerates the paper's prediction comparison on the synthetic
// MIPS benchmark: mine motifs, keep the over-represented ones, label them
// with LaMoFinder against the functional-catalogue GO corpus, and compare
// the labeled-motif predictor against NC, Chi2, PRODISTIN and MRF under
// leave-one-out.
func Figure9(cfg Figure9Config) *Figure9Result {
	mined := MineLabeled(cfg)
	m := mined.MIPS
	net := m.Task.Network
	lmp := label.NewScorer(m.Task, mined.Labeled)
	scorers := []predict.Scorer{
		lmp,
		predict.NewMRF(m.Task),
		predict.NewChiSquare(m.Task),
		predict.NewNC(m.Task),
	}
	if cfg.IncludeProdistin {
		scorers = append(scorers, predict.NewProdistin(m.Task))
	}
	if cfg.IncludeGibbs {
		scorers = append(scorers, predict.NewGibbsMRF(m.Task, predict.DefaultGibbsConfig()))
	}
	// Evaluate the methods concurrently, one goroutine per scorer: the task
	// is read-only during scoring, and confining each scorer to a single
	// worker keeps any internal scorer caches single-threaded. Results land
	// in indexed slots, so curve order matches the scorer list.
	type scorerEval struct {
		curve eval.Curve
		macro float64
		name  string
	}
	evals := make([]scorerEval, len(scorers))
	par.Do(len(scorers), par.Workers(cfg.Label.Parallelism), func(i int) {
		s := scorers[i]
		_, ma := eval.AUC(m.Task, s)
		evals[i] = scorerEval{curve: eval.LeaveOneOut(m.Task, s, cfg.MaxK), macro: ma, name: s.Name()}
	})
	macro := map[string]float64{}
	curves := make([]eval.Curve, len(evals))
	for i, ev := range evals {
		curves[i] = ev.curve
		macro[ev.name] = ev.macro
	}
	res := &Figure9Result{
		Curves:        curves,
		MacroAUC:      macro,
		MinedClasses:  mined.MinedClasses,
		UniqueMotifs:  mined.UniqueMotifs,
		LabeledMotifs: len(mined.Labeled),
		MotifCoverage: lmp.Coverage(),
		Proteins:      net.N(),
		Interactions:  net.M(),
		Annotated:     m.Task.NumAnnotated(),
	}
	return res
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

// WriteText renders the PR table and the method ordering, the textual
// analogue of Figure 9.
func (r *Figure9Result) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "Figure 9 pipeline: %d proteins, %d interactions, %d annotated\n",
		r.Proteins, r.Interactions, r.Annotated)
	fmt.Fprintf(bw, "  mined=%d unique=%d labeled=%d motif-covered proteins=%d\n",
		r.MinedClasses, r.UniqueMotifs, r.LabeledMotifs, r.MotifCoverage)
	fmt.Fprint(bw, eval.FormatCurves(r.Curves))
	fmt.Fprintf(bw, "average precision:")
	for _, c := range r.Curves {
		fmt.Fprintf(bw, "  %s=%.3f", c.Method, c.AveragePrecision())
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, "best F1:")
	for _, c := range r.Curves {
		fmt.Fprintf(bw, "  %s=%.3f", c.Method, c.BestF1())
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, "macro AUC:")
	for _, c := range r.Curves {
		fmt.Fprintf(bw, "  %s=%.3f", c.Method, r.MacroAUC[c.Method])
	}
	fmt.Fprintln(bw)
	return bw.Flush()
}
