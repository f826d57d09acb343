package motif

import (
	"math"
	"math/rand"
	"sort"

	"lamofinder/internal/graph"
	"lamofinder/internal/par"
)

// RandESUConfig controls the RAND-ESU sampling estimator (Wernicke 2005,
// the sampling mode of FANMOD; Kashtan et al.'s mfinder pioneered the
// approach the paper cites as Task-1 baseline).
type RandESUConfig struct {
	// K is the subgraph size to sample.
	K int
	// Probabilities holds the per-depth retention probabilities q_d for
	// depths 0..K-1; each enumeration branch at depth d survives with
	// probability q_d, so a leaf is visited with probability prod(q_d).
	// Empty selects uniform probabilities from SampleFraction.
	Probabilities []float64
	// SampleFraction, when Probabilities is empty, sets prod(q_d): the
	// expected fraction of all size-K subgraphs visited. The last levels
	// get the small probabilities, as Wernicke recommends.
	SampleFraction float64
	Seed           int64
	// Parallelism caps the concurrent root-chunk workers
	// (0 = runtime.GOMAXPROCS(0)). Each fixed-size root chunk draws from
	// its own RNG stream derived from Seed and the chunk index, so the
	// sample — not just its distribution — is identical at any setting.
	Parallelism int
}

// Concentration is a sampled estimate of one pattern class's share of all
// connected size-K subgraphs.
type Concentration struct {
	Pattern *graph.Dense
	// Count is the number of sampled occurrences of the class.
	Count int
	// Concentration is Count over all sampled size-K subgraphs.
	Concentration float64
	// EstimatedTotal extrapolates the class's absolute frequency by the
	// sampling probability.
	EstimatedTotal float64
}

// chunkSample is one root chunk's private tally of sampled leaves. Class
// ids are dense and first-seen ordered, so the counts slice doubles as the
// first-seen order — no map, no separate order list.
type chunkSample struct {
	cl     *graph.Classifier
	counts []int // indexed by class id
	total  int
}

// SampleConcentrations estimates per-class subgraph concentrations with the
// RAND-ESU tree-sampling scheme: the exact ESU enumeration tree is pruned
// randomly but unbiasedly, each surviving leaf contributing one sample.
// Root vertices are partitioned into fixed-size chunks sampled
// concurrently; chunk c prunes with its own rand.New(rand.NewSource(Seed +
// c*prime)) stream, and per-chunk tallies merge in chunk order, so the
// estimate is deterministic and independent of the worker count.
//
// The pruned tree is the exact census's walk with a keep hook: the
// per-chunk RNG consumes one draw per root and one per popped extension
// entry, in exactly the enumeration order, so the sample is bit-identical
// to the historical map-based formulation.
//
// invariant: len(cfg.Probabilities), when set, equals cfg.K — one retention
// probability per tree depth. A mismatched configuration is a programmer
// error; defaults are derived when the slice is empty.
func SampleConcentrations(g *graph.Graph, cfg RandESUConfig) []Concentration {
	k := cfg.K
	if k < 2 {
		return nil
	}
	probs := cfg.Probabilities
	if len(probs) == 0 {
		frac := cfg.SampleFraction
		if frac <= 0 || frac > 1 {
			frac = 0.1
		}
		probs = defaultProbs(k, frac)
	}
	if len(probs) != k {
		panic("motif: RAND-ESU needs one probability per depth")
	}
	leafProb := 1.0
	for _, p := range probs {
		leafProb *= p
	}

	n := g.N()
	csr, bits := graph.NewCSR(g), graph.NewAdjBits(g)
	chunks := make([]*chunkSample, par.NumChunks(n, esuRootChunk))
	par.Chunks(n, esuRootChunk, par.Workers(cfg.Parallelism), func(c, lo, hi int) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*0x9e3779b9))
		cs := &chunkSample{cl: graph.NewClassifier()}
		s := newESUScratch(csr, bits, k)
		// Depth d is the number of vertices already chosen; adding the
		// (d+1)-th survives when its draw falls below probs[d].
		s.keep = func(depth int) bool { return rng.Float64() < probs[depth] }
		var d graph.Dense
		enumerateESURange(s, lo, hi, func(vs []int32) bool {
			fillInduced(&d, bits, vs)
			id := cs.cl.Classify(&d)
			if id == len(cs.counts) {
				cs.counts = append(cs.counts, 0)
			}
			cs.counts[id]++
			cs.total++
			return true
		})
		chunks[c] = cs
	})

	// Chunk-ordered merge into one classifier.
	cl := graph.NewClassifier()
	var counts []int // indexed by global class id, in first-seen order
	total := 0
	for _, cs := range chunks {
		for lid, cnt := range cs.counts {
			gid := cl.Classify(cs.cl.Rep(lid))
			if gid == len(counts) {
				counts = append(counts, 0)
			}
			counts[gid] += cnt
		}
		total += cs.total
	}

	out := make([]Concentration, 0, len(counts))
	for id, c := range counts {
		conc := Concentration{
			Pattern: cl.Rep(id),
			Count:   c,
		}
		if total > 0 {
			conc.Concentration = float64(c) / float64(total)
		}
		if leafProb > 0 {
			conc.EstimatedTotal = float64(c) / leafProb
		}
		out = append(out, conc)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// defaultProbs spreads the sampling fraction over the last levels: the
// first half of the tree is explored fully, the remaining levels share the
// fraction geometrically (Wernicke's recommendation keeps the samples
// well spread across the tree).
func defaultProbs(k int, frac float64) []float64 {
	probs := make([]float64, k)
	for i := range probs {
		probs[i] = 1
	}
	// Distribute frac over the deeper half.
	deep := k / 2
	if deep == 0 {
		deep = 1
	}
	per := math.Pow(frac, 1/float64(deep))
	for i := k - deep; i < k; i++ {
		probs[i] = per
	}
	return probs
}
