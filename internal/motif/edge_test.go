package motif

import (
	"math"
	"math/rand"
	"testing"

	"lamofinder/internal/graph"
	"lamofinder/internal/randnet"
)

func TestFindEmptyGraph(t *testing.T) {
	g := graph.New(10)
	ms := Find(g, Config{MinSize: 3, MaxSize: 5, MinFreq: 1})
	if len(ms) != 0 {
		t.Errorf("edgeless graph produced %d motifs", len(ms))
	}
}

func TestFindInvalidSizeRange(t *testing.T) {
	g := ring(10)
	if ms := Find(g, Config{MinSize: 6, MaxSize: 3, MinFreq: 1}); ms != nil {
		t.Errorf("inverted size range produced %v", ms)
	}
}

func TestFindEdgeClassOnly(t *testing.T) {
	g := ring(20)
	ms := Find(g, Config{MinSize: 2, MaxSize: 2, MinFreq: 1})
	if len(ms) != 1 || ms[0].Size() != 2 || ms[0].Frequency != 20 {
		t.Fatalf("edge class wrong: %v", ms)
	}
}

func TestFindMinSizeClampedToTwo(t *testing.T) {
	g := ring(10)
	ms := Find(g, Config{MinSize: 0, MaxSize: 2, MinFreq: 1})
	if len(ms) != 1 || ms[0].Size() != 2 {
		t.Fatalf("clamped MinSize wrong: %v", ms)
	}
}

func TestEnumerateESUZeroAndOne(t *testing.T) {
	g := ring(5)
	count := 0
	EnumerateESU(g, 0, func(vs []int32) bool { count++; return true })
	if count != 0 {
		t.Errorf("k=0 visited %d", count)
	}
	EnumerateESU(g, 1, func(vs []int32) bool { count++; return true })
	if count != 5 {
		t.Errorf("k=1 visited %d, want 5", count)
	}
}

func TestEnumerateESULargerThanGraph(t *testing.T) {
	g := ring(4)
	count := 0
	EnumerateESU(g, 5, func(vs []int32) bool { count++; return true })
	if count != 0 {
		t.Errorf("k>n visited %d", count)
	}
}

func TestScoreUniquenessZeroNetworks(t *testing.T) {
	g := ring(10)
	ms := Find(g, Config{MinSize: 3, MaxSize: 3, MinFreq: 1})
	ScoreUniqueness(g, ms, UniquenessConfig{Networks: 0})
	for _, m := range ms {
		if m.Uniqueness != -1 {
			t.Errorf("uniqueness touched with 0 networks: %v", m.Uniqueness)
		}
	}
}

func TestUniquenessCountCapBitesCommonPatterns(t *testing.T) {
	// A pattern more frequent than the cap cannot be certified unique.
	g := ring(200) // P3 occurs 200 times
	ms := Find(g, Config{MinSize: 3, MaxSize: 3, MinFreq: 1})
	if len(ms) != 1 {
		t.Fatalf("classes = %d", len(ms))
	}
	ScoreUniqueness(g, ms, UniquenessConfig{Networks: 4, CountCap: 50, Seed: 1})
	if ms[0].Uniqueness != 0 {
		t.Errorf("capped pattern certified: uniq = %v", ms[0].Uniqueness)
	}
}

func TestUniquenessStepBudgetSemantics(t *testing.T) {
	// A tiny budget that still finds at least one match cannot certify the
	// round (loss); a budget exhausted on zero matches counts as a win
	// (rarity evidence). Paths exist abundantly in any ring randomization:
	// with a budget big enough to find one, the path round must be a loss.
	g := ring(100)
	for c := 0; c < 20; c++ {
		g.AddEdge(5*c, 5*c+2)
	}
	ms := Find(g, Config{MinSize: 3, MaxSize: 3, MinFreq: 10})
	var path *Motif
	for _, m := range ms {
		if m.Pattern.M() == 2 {
			path = m
		}
	}
	if path == nil {
		t.Fatal("path class missing")
	}
	// Budget of 50 steps: enough to complete a few path embeddings, not
	// enough to count them all (frequency is in the hundreds).
	ScoreUniqueness(g, []*Motif{path}, UniquenessConfig{Networks: 3, MaxSteps: 50, Seed: 1})
	if path.Uniqueness != 0 {
		t.Errorf("budget-starved common pattern certified: %v", path)
	}
}

func TestReservoirFrequencyIsLowerBound(t *testing.T) {
	// Growth happens only from stored occurrences, so with a cap the deeper
	// levels' frequencies are lower bounds on the true counts — never
	// higher, and never below the stored list length.
	g := ring(100)
	capped := Find(g, Config{MinSize: 3, MaxSize: 4, MinFreq: 1, MaxOccPerClass: 10, Seed: 1})
	full := Find(g, Config{MinSize: 3, MaxSize: 4, MinFreq: 1, Seed: 1})
	if len(capped) != len(full) {
		t.Fatalf("class counts differ: %d vs %d", len(capped), len(full))
	}
	for i := range capped {
		if capped[i].Frequency > full[i].Frequency {
			t.Errorf("class %d capped frequency %d exceeds exact %d",
				i, capped[i].Frequency, full[i].Frequency)
		}
		if capped[i].Frequency < len(capped[i].Occurrences) {
			t.Errorf("class %d frequency %d below stored occurrences %d",
				i, capped[i].Frequency, len(capped[i].Occurrences))
		}
		if len(capped[i].Occurrences) > 10 {
			t.Errorf("class %d kept %d occurrences", i, len(capped[i].Occurrences))
		}
	}
	// At size 3 (grown from the uncapped edge level... the edge level is
	// also subsampled), the exact miner must count all 100 paths.
	if full[0].Size() == 3 && full[0].Frequency != 100 {
		t.Errorf("exact P3 frequency = %d, want 100", full[0].Frequency)
	}
}

func TestReservoirOccurrencesValid(t *testing.T) {
	// Reservoir-sampled occurrences must still be valid embeddings.
	g := ring(60)
	for c := 0; c < 12; c++ {
		g.AddEdge(3*c, 3*c+2)
	}
	ms := Find(g, Config{MinSize: 3, MaxSize: 4, MinFreq: 5, MaxOccPerClass: 7, Seed: 2})
	for _, m := range ms {
		for _, occ := range m.Occurrences {
			if occ == nil {
				t.Fatalf("nil occurrence slot in %v", m)
			}
			k := m.Size()
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					if m.Pattern.HasEdge(i, j) != g.HasEdge(int(occ[i]), int(occ[j])) {
						t.Fatalf("occurrence %v does not embed %v", occ, m.Pattern)
					}
				}
			}
		}
	}
}

func TestScoreZPlantedTriangles(t *testing.T) {
	// Planted triangles on a ring: strongly positive z-score.
	g := ring(300)
	for c := 0; c < 40; c++ {
		g.AddEdge(3*c, 3*c+2)
	}
	ms := Find(g, Config{MinSize: 3, MaxSize: 3, MinFreq: 30})
	var tri *Motif
	for _, m := range ms {
		if m.Pattern.M() == 3 {
			tri = m
		}
	}
	if tri == nil {
		t.Fatal("triangle class missing")
	}
	zs := ScoreZ(g, []*Motif{tri}, UniquenessConfig{Networks: 8, Seed: 4})
	z := zs[0]
	if !z.Exact {
		t.Error("counts should resolve exactly at this scale")
	}
	if z.Z < 2 {
		t.Errorf("planted triangle z = %v, want >> 0 (mean %v std %v)", z.Z, z.RandMean, z.RandStd)
	}
}

func TestScoreZNoNetworks(t *testing.T) {
	g := ring(10)
	ms := Find(g, Config{MinSize: 3, MaxSize: 3, MinFreq: 1})
	zs := ScoreZ(g, ms, UniquenessConfig{})
	if len(zs) != len(ms) || zs[0].Z != 0 {
		t.Errorf("zero-network z-scores: %v", zs)
	}
}

// TestScoreZCountsUniquenessNetworks: ScoreZ's randomized mean is the
// mean triangle count, counted here by brute force, over the networks
// ScoreUniqueness draws (network r from seed Seed + r·0x9e3779b9), and
// ScoreZ reads the same at Parallelism 1 and 4.
func TestScoreZCountsUniquenessNetworks(t *testing.T) {
	g := randnet.BarabasiAlbert(300, 3, 2, rand.New(rand.NewSource(1)))
	var tri *Motif
	for _, m := range Find(g, Config{MinSize: 3, MaxSize: 3, MinFreq: 1}) {
		if m.Pattern.M() == 3 {
			tri = m
		}
	}
	if tri == nil {
		t.Fatal("triangle class missing")
	}
	cfg := UniquenessConfig{Networks: 4, Seed: 1}
	want := 0.0
	for r := 0; r < cfg.Networks; r++ {
		rg := randnet.Randomize(g, rand.New(rand.NewSource(cfg.Seed+int64(r)*0x9e3779b9)))
		for u := 0; u < rg.N(); u++ {
			for _, v := range rg.Neighbors(u) {
				for _, w := range rg.Neighbors(int(v)) {
					if int(v) > u && w > v && rg.HasEdge(u, int(w)) {
						want++
					}
				}
			}
		}
	}
	want /= float64(cfg.Networks)
	var first ZScore
	for _, p := range []int{1, 4} {
		cfg.Parallelism = p
		z := ScoreZ(g, []*Motif{tri}, cfg)[0]
		if math.Abs(z.RandMean-want) > 1e-9 || !z.Exact {
			t.Fatalf("Parallelism %d: RandMean %v (exact %v), want %v over the uniqueness networks", p, z.RandMean, z.Exact, want)
		}
		if p == 1 {
			first = z
		} else if z != first {
			t.Fatalf("Parallelism %d: %+v, Parallelism 1: %+v", p, z, first)
		}
	}
}

// TestScoreZMarksCappedCountsInexact: a randomized count stopped at
// CountCap is a lower bound. The 300-vertex Barabási–Albert graph's
// randomizations hold far more than 5 triangles, so at a cap of 5 every
// count stops there: the row is inexact, its mean is the cap and its z is
// 0, not the ±Inf a zero spread would give. Far above the counts, the cap
// leaves the row exact.
func TestScoreZMarksCappedCountsInexact(t *testing.T) {
	g := randnet.BarabasiAlbert(300, 3, 2, rand.New(rand.NewSource(1)))
	var tri *Motif
	for _, m := range Find(g, Config{MinSize: 3, MaxSize: 3, MinFreq: 1}) {
		if m.Pattern.M() == 3 {
			tri = m
		}
	}
	if tri == nil {
		t.Fatal("triangle class missing")
	}
	cfg := UniquenessConfig{Networks: 4, Seed: 1, CountCap: 5}
	if z := ScoreZ(g, []*Motif{tri}, cfg)[0]; z.Exact || z.Z != 0 || z.RandMean != 5 || z.RandStd != 0 {
		t.Fatalf("cap 5: %+v, want inexact, Z 0 and RandMean 5", z)
	}
	cfg.CountCap = 1_000_000
	if z := ScoreZ(g, []*Motif{tri}, cfg)[0]; !z.Exact || z.RandMean <= 5 || math.IsInf(z.Z, 0) {
		t.Fatalf("cap 1e6: %+v, want an exact, finite row", z)
	}
}

func TestBeamKeepsDenseClasses(t *testing.T) {
	// A network with abundant generic paths plus planted 4-cliques: with a
	// tiny beam, the density half must keep the clique class alive even
	// though many path-ish classes are more frequent.
	g := graph.New(400)
	for i := 0; i < 400; i++ {
		g.AddEdge(i, (i+1)%400)
		g.AddEdge(i, (i+7)%400) // extra generic structure
	}
	for c := 0; c < 20; c++ {
		base := c * 9
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				g.AddEdge(base+i, base+j)
			}
		}
	}
	ms := Find(g, Config{MinSize: 4, MaxSize: 4, MinFreq: 15, BeamWidth: 4,
		MaxOccPerClass: 200, DenseBeamFraction: 0.5, Seed: 1})
	found := false
	for _, m := range ms {
		if m.Size() == 4 && m.Pattern.M() == 6 {
			found = true
		}
	}
	if !found {
		t.Error("dense 4-clique class lost under a tiny beam")
	}
}
