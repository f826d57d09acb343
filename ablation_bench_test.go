package lamofinder

import (
	"math/rand"
	"testing"

	"lamofinder/internal/dataset"
	"lamofinder/internal/dimotif"
	"lamofinder/internal/experiments"
	"lamofinder/internal/graph"
	"lamofinder/internal/label"
	"lamofinder/internal/motif"
	"lamofinder/internal/randnet"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// symmetry-pairing strategy in Eq. 3, the miner's beam width, the
// null-model count cap, and dropping motifs that cannot pass the
// uniqueness threshold.

// BenchmarkPairingOrbitExact measures Eq.-3 pairing on a star pattern,
// where per-orbit Hungarian assignment spans the automorphism group.
func BenchmarkPairingOrbitExact(b *testing.B) {
	benchPairing(b, starPattern(8))
}

// BenchmarkPairingAutomorphisms measures Eq.-3 pairing on a cycle pattern,
// where explicit automorphism enumeration is required.
func BenchmarkPairingAutomorphisms(b *testing.B) {
	benchPairing(b, cyclePattern(8))
}

func starPattern(n int) *graph.Dense {
	d := graph.NewDense(n)
	for v := 1; v < n; v++ {
		d.AddEdge(0, v)
	}
	return d
}

func cyclePattern(n int) *graph.Dense {
	d := graph.NewDense(n)
	for i := 0; i < n; i++ {
		d.AddEdge(i, (i+1)%n)
	}
	return d
}

func benchPairing(b *testing.B, pat *graph.Dense) {
	pe := dataset.NewPaperExample()
	s := label.NewSim(pe.Ontology, pe.Weights())
	sym := label.NewSymmetry(pat)
	rng := rand.New(rand.NewSource(1))
	n := pat.N()
	la := make([][]int32, n)
	lb := make([][]int32, n)
	for v := 0; v < n; v++ {
		la[v] = []int32{int32(rng.Intn(pe.Ontology.NumTerms()))}
		lb[v] = []int32{int32(rng.Intn(pe.Ontology.NumTerms()))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Occurrence(la, lb, sym)
	}
}

// BenchmarkMinerBeam30 and BenchmarkMinerBeamUnbounded ablate the beam
// width: the beam trades completeness for level-size control.
func BenchmarkMinerBeam30(b *testing.B)        { benchMinerBeam(b, 30) }
func BenchmarkMinerBeamUnbounded(b *testing.B) { benchMinerBeam(b, 0) }

func benchMinerBeam(b *testing.B, beam int) {
	rng := rand.New(rand.NewSource(9))
	g := randnet.BarabasiAlbert(600, 3, 2, rng)
	cfg := motif.Config{MinSize: 3, MaxSize: 6, MinFreq: 20, BeamWidth: beam,
		MaxOccPerClass: 100, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		motif.Find(g, cfg)
	}
}

// BenchmarkUniquenessCapped and BenchmarkUniquenessUncapped ablate the
// null-model count cap, which bounds the cost of certifying ultra-common
// patterns.
func BenchmarkUniquenessCapped(b *testing.B)   { benchUniqueness(b, 2000) }
func BenchmarkUniquenessUncapped(b *testing.B) { benchUniqueness(b, 0) }

func benchUniqueness(b *testing.B, cap int) {
	rng := rand.New(rand.NewSource(11))
	g := randnet.BarabasiAlbert(800, 3, 2, rng)
	ms := motif.Find(g, motif.Config{MinSize: 3, MaxSize: 4, MinFreq: 50,
		BeamWidth: 10, MaxOccPerClass: 50, Seed: 1})
	if len(ms) == 0 {
		b.Fatal("no motifs")
	}
	cfg := motif.UniquenessConfig{Networks: 2, MaxSteps: 5_000_000, CountCap: cap, Seed: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		motif.ScoreUniqueness(g, ms, cfg)
	}
}

// BenchmarkUniquenessEveryRound and BenchmarkUniquenessPaperThreshold
// ablate dropping hopeless motifs at the quick Figure 9 preset: the first
// counts every mined motif on every null network and then filters at the
// preset's 0.6 threshold, the second stops counting a motif once it can no
// longer reach 0.6. Both keep the same motifs with the same uniqueness.
func BenchmarkUniquenessEveryRound(b *testing.B) {
	benchUniquenessThreshold(b, func(net *graph.Graph, ms []*motif.Motif, cfg experiments.Figure9Config) []*motif.Motif {
		motif.ScoreUniqueness(net, ms, cfg.Null)
		return motif.FilterUnique(ms, cfg.MinUniqueness)
	})
}

func BenchmarkUniquenessPaperThreshold(b *testing.B) {
	benchUniquenessThreshold(b, func(net *graph.Graph, ms []*motif.Motif, cfg experiments.Figure9Config) []*motif.Motif {
		return motif.ScoreUnique(net, ms, cfg.Null, cfg.MinUniqueness)
	})
}

func benchUniquenessThreshold(b *testing.B, score func(*graph.Graph, []*motif.Motif, experiments.Figure9Config) []*motif.Motif) {
	cfg := experiments.QuickFigure9Config()
	net := dataset.NewMIPS(cfg.MIPS).Task.Network
	ms := motif.Find(net, cfg.Mine)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(score(net, ms, cfg)) == 0 {
			b.Fatal("no unique motifs")
		}
	}
}

// BenchmarkDirectedMiner measures the directed beam miner (the future-work
// extension) at the FFL scale.
func BenchmarkDirectedMiner(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	g := dimotif.NewDiGraph(500)
	for i := 0; i < 900; i++ {
		g.AddArc(rng.Intn(500), rng.Intn(500))
	}
	cfg := motif.Config{MinSize: 3, MaxSize: 4, MinFreq: 10, BeamWidth: 20,
		MaxOccPerClass: 100, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dimotif.Find(g, cfg)
	}
}
