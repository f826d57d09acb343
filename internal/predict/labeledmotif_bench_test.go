package predict

import (
	"math"
	"math/rand"
	"testing"

	"lamofinder/internal/graph"
)

// yeastScaleInputs synthesizes a prediction task and labeled-motif
// occurrence sets at the paper's yeast interactome scale (~4400 proteins,
// 13 categories). Occurrence vertices are hub-skewed — cubing the uniform
// variate concentrates placements on low-index proteins the way scale-free
// interactomes concentrate motif occurrences on hubs — so a hub protein
// accumulates thousands of (motif, vertex) incidences and the constructor's
// merge strategy dominates the build cost.
func yeastScaleInputs(nProteins, nMotifs, occPerMotif, size int, seed int64) (*Task, []MotifInput) {
	rng := rand.New(rand.NewSource(seed))
	t := NewTask(graph.New(nProteins), 13)
	for p := 0; p < nProteins; p++ {
		for f := 0; f < t.NumFunctions; f++ {
			if rng.Float64() < 0.15 {
				t.Functions[p] = append(t.Functions[p], f)
			}
		}
	}
	motifs := make([]MotifInput, nMotifs)
	for m := range motifs {
		occs := make([][]int32, occPerMotif)
		for o := range occs {
			occ := make([]int32, size)
			for v := range occ {
				occ[v] = int32(float64(nProteins-1) * math.Pow(rng.Float64(), 3))
			}
			occs[o] = occ
		}
		motifs[m] = MotifInput{Size: size, Occurrences: occs, Frequency: occPerMotif, Uniqueness: 0.8}
	}
	return t, motifs
}

// BenchmarkNewLabeledMotifYeastScale measures predictor construction — the
// cost `lamod build` pays per artifact and `lamod serve` pays per model
// load for its healthz coverage count.
func BenchmarkNewLabeledMotifYeastScale(b *testing.B) {
	t, motifs := yeastScaleInputs(4400, 300, 200, 5, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp := NewLabeledMotif(t, motifs)
		if lp.Coverage() == 0 {
			b.Fatal("synthetic inputs produced no coverage")
		}
	}
}
