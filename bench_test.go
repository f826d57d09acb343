// Benchmarks regenerating each table and figure of the paper (see
// EXPERIMENTS.md for the paper-vs-measured record), plus micro-benchmarks
// for the load-bearing substrates. Figure pipelines run on reduced-scale
// presets so `go test -bench=.` stays interactive; cmd/experiments runs the
// paper-scale versions.
package lamofinder

import (
	"math/rand"
	"testing"

	"lamofinder/internal/dataset"
	"lamofinder/internal/experiments"
	"lamofinder/internal/graph"
	"lamofinder/internal/label"
	"lamofinder/internal/motif"
	"lamofinder/internal/predict"
	"lamofinder/internal/randnet"
)

// BenchmarkTable1Weights regenerates Table 1 (GO term weights).
func BenchmarkTable1Weights(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := experiments.Table1(); len(r.Rows) != 11 {
			b.Fatal("table 1 rows")
		}
	}
}

// BenchmarkTable3Similarity regenerates Table 3 (SV rows and SO(o1,o2)).
func BenchmarkTable3Similarity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := experiments.Table3(); r.SO <= 0 {
			b.Fatal("SO")
		}
	}
}

// BenchmarkTable4LeastGeneral regenerates Table 4 (minimum common father
// labels).
func BenchmarkTable4LeastGeneral(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := experiments.Table4(); len(r.Rows) != 4 {
			b.Fatal("table 4 rows")
		}
	}
}

// benchFigure6Config is a miniature Figure-6 pipeline for benchmarking.
func benchFigure6Config() experiments.Figure6Config {
	cfg := experiments.QuickFigure6Config()
	cfg.Yeast.Proteins = 500
	cfg.Yeast.Edges = 900
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

// BenchmarkFigure6Pipeline runs the mine -> null model -> label pipeline
// behind Figure 6 and the Section-4 statistics (reduced scale).
func BenchmarkFigure6Pipeline(b *testing.B) {
	cfg := benchFigure6Config()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure6(cfg)
		if r.LabeledMotifs == 0 {
			b.Fatal("no labeled motifs")
		}
	}
}

// BenchmarkFigure7Examples regenerates the Figure-7 exhibit search
// (reduced scale).
func BenchmarkFigure7Examples(b *testing.B) {
	cfg := experiments.DefaultFigure7Config()
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure7(cfg)
		if r.UniCount+r.NonUniCount+r.ParallelCount == 0 {
			b.Fatal("no exhibits found")
		}
	}
}

// BenchmarkFigure9Prediction runs the five-method leave-one-out comparison
// behind Figure 9 (reduced scale).
func BenchmarkFigure9Prediction(b *testing.B) {
	cfg := experiments.QuickFigure9Config()
	cfg.MIPS.Proteins = 400
	cfg.MIPS.Edges = 560
	cfg.Null.Networks = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure9(cfg)
		if len(r.Curves) != 5 {
			b.Fatal("curves")
		}
	}
}

// ---- substrate micro-benchmarks ----

func benchNetwork(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return randnet.BarabasiAlbert(n, 3, m/n, rng)
}

// BenchmarkESUCensus measures the exact FANMOD-style size-4 census.
func BenchmarkESUCensus(b *testing.B) {
	g := benchNetwork(500, 1000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		motif.CensusESU(g, 4, 50)
	}
}

// BenchmarkMesoMiner measures the beam miner to size 8.
func BenchmarkMesoMiner(b *testing.B) {
	g := benchNetwork(800, 1600, 3)
	cfg := motif.Config{MinSize: 3, MaxSize: 8, MinFreq: 20, BeamWidth: 30, MaxOccPerClass: 100, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		motif.Find(g, cfg)
	}
}

// BenchmarkDegreePreservingNull measures one randomized-network generation.
func BenchmarkDegreePreservingNull(b *testing.B) {
	g := benchNetwork(1000, 2000, 4)
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		randnet.Randomize(g, rng)
	}
}

// BenchmarkOccurrenceSimilarity measures Eq. 3 with symmetry pairing on the
// paper's example motif.
func BenchmarkOccurrenceSimilarity(b *testing.B) {
	pe := dataset.NewPaperExample()
	s := label.NewSim(pe.Ontology, pe.Weights())
	sym := label.NewSymmetry(pe.Motif.Pattern)
	labelsOf := func(occ []int32) [][]int32 {
		out := make([][]int32, len(occ))
		for i, p := range occ {
			out[i] = pe.Corpus.Terms(int(p))
		}
		return out
	}
	la := labelsOf(pe.Motif.Occurrences[0])
	lb := labelsOf(pe.Motif.Occurrences[1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Occurrence(la, lb, sym)
	}
}

// BenchmarkLabelMotif measures LaMoFinder on one motif with 60 occurrences.
func BenchmarkLabelMotif(b *testing.B) {
	cfg := dataset.DefaultYeastConfig()
	cfg.Proteins = 400
	cfg.Edges = 700
	cfg.TermsPerBranch = 80
	cfg.Templates = []dataset.TemplateSpec{{Size: 5, Edges: 2, Instances: 60, PoolSize: 25}}
	y := dataset.NewYeast(cfg)
	pt := y.Planted[0]
	m := &motif.Motif{Pattern: pt.Pattern, Occurrences: pt.Instances,
		Frequency: len(pt.Instances), Uniqueness: 1}
	lcfg := label.DefaultConfig()
	lcfg.Sigma = 6
	lcfg.MaxOccurrences = 60
	labeler := label.NewLabeler(y.Corpora[0], lcfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labeler.LabelMotif(m)
	}
}

// BenchmarkLeaveOneOutNC measures the evaluation harness with the cheapest
// scorer.
func BenchmarkLeaveOneOutNC(b *testing.B) {
	mcfg := dataset.DefaultMIPSConfig()
	mcfg.Proteins = 500
	mcfg.Edges = 700
	m := dataset.NewMIPS(mcfg)
	nc := predict.NewNC(m.Task)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LeaveOneOut(m.Task, nc, 13)
	}
}

// BenchmarkFigure8Demonstration regenerates the Figure-8 prediction
// walk-through on the worked example.
func BenchmarkFigure8Demonstration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := experiments.Figure8(); r.TopFunction == "" {
			b.Fatal("no prediction")
		}
	}
}
