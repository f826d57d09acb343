package artifact

import (
	"fmt"

	"lamofinder/internal/par"
	"lamofinder/internal/predict"
)

// ScoreIndex is the build-time score index every artifact carries: the
// dense protein×function Eq.-5 score matrix plus the full ranking of every
// protein, both computed once at `lamod build` time. A serving process
// answers a prediction from the rankings with two slice reads — no
// scoring, no sorting, no allocation — and a bulk query scans the score
// matrix one contiguous category column at a time.
//
// The index is derived state: it is a pure function of the rest of the
// artifact (the same scorer constructor every offline consumer uses). It
// is nevertheless carried inside the checksummed payload, not recomputed
// at load, because recomputing would put the expensive half of Eq. 5 back
// on the serving path the index exists to remove.
//
// In memory the matrix is category-major, the layout the query engine
// scans. On disk the section is row-major (one protein's scores after
// another), so that artifacts written before the in-memory layout
// changed keep their bytes and digests; encodeIndex and decodeIndex
// convert between the two.
type ScoreIndex struct {
	n, nf int // proteins, functions
	// cols[f*n+p] is protein p's score for function f.
	cols []float64
	// ranked[p] is protein p's full ranking — predict.TopK of its scores
	// with k=0 — with scores materialized, so serving top-k is a subslice.
	ranked [][]predict.Ranked
}

// NumProteins returns the number of indexed proteins.
func (ix *ScoreIndex) NumProteins() int { return ix.n }

// Column returns function f's scores for every protein, indexed by
// protein. The slice aliases the index and must be treated read-only.
func (ix *ScoreIndex) Column(f int) []float64 {
	return ix.cols[f*ix.n : (f+1)*ix.n]
}

// Ranking returns protein p's full descending ranking (positive scores
// only, ties toward the smaller function index). The slice aliases the
// index and must be treated read-only; a top-k answer is Ranking(p)[:k].
//
// alloc-budget: 0
func (ix *ScoreIndex) Ranking(p int) []predict.Ranked {
	return ix.ranked[p]
}

// BuildIndex scores every protein on the worker pool and attaches the
// result as the artifact's score index. parallelism <= 0 uses GOMAXPROCS
// workers; the result is identical at any setting because each protein
// writes only its own matrix slots and ranking slot.
func (a *Artifact) BuildIndex(parallelism int) {
	scorer := a.NewScorer()
	n, nf := a.Graph.N(), a.NumFunctions
	ix := &ScoreIndex{
		n:      n,
		nf:     nf,
		cols:   make([]float64, n*nf),
		ranked: make([][]predict.Ranked, n),
	}
	par.Do(n, par.Workers(parallelism), func(p int) {
		row := scorer.Scores(p)
		for f, s := range row {
			ix.cols[f*n+p] = s
		}
		ix.ranked[p] = predict.TopK(row, 0)
	})
	a.Index = ix
	a.digest = "" // the encoded form (and so the identity) changed
}

// encodeIndex appends the score-index section: the function count, the
// matrix row-major, then each protein's ranking as function ids.
func (a *Artifact) encodeIndex(e *enc) error {
	ix := a.Index
	n, nf := a.Graph.N(), a.NumFunctions
	if ix.n != n || ix.nf != nf || len(ix.cols) != n*nf || len(ix.ranked) != n {
		return fmt.Errorf("artifact: score index shape %d×%d does not match model %d×%d",
			ix.n, ix.nf, n, nf)
	}
	e.u32(uint32(nf))
	for p := 0; p < n; p++ {
		for f := 0; f < nf; f++ {
			e.f64(ix.cols[f*n+p])
		}
	}
	for p := 0; p < n; p++ {
		rk := ix.ranked[p]
		e.u32(uint32(len(rk)))
		for _, r := range rk {
			e.u32(uint32(r.Function))
		}
	}
	return nil
}

// decodeIndex reads and validates the score-index section. The stored
// rankings are only function ids; scores come from the matrix, and the
// section is rejected unless each ranking is exactly predict.TopK of its
// row — complete over the positive scores, each entry ranked Before the
// next. All rankings share one backing array, sized from the matrix's
// positive scores.
func decodeIndex(d *dec, a *Artifact) (*ScoreIndex, error) {
	n := a.Graph.N()
	nf := d.count(0)
	if d.err == nil && nf != a.NumFunctions {
		d.fail("score index covers %d functions, model has %d", nf, a.NumFunctions)
	}
	if d.err != nil {
		return nil, d.err
	}
	if got, want := len(d.b)-d.off, 8*n*nf; got < want {
		return nil, fmt.Errorf("artifact: score matrix needs %d bytes, %d remain", want, got)
	}
	ix := &ScoreIndex{n: n, nf: nf, cols: make([]float64, n*nf), ranked: make([][]predict.Ranked, n)}
	positive := make([]int, n)
	total := 0
	for p := 0; p < n; p++ {
		for f := 0; f < nf; f++ {
			s := d.f64()
			ix.cols[f*n+p] = s
			if s > 0 {
				positive[p]++
			}
		}
		total += positive[p]
	}
	all := make([]predict.Ranked, 0, total)
	for p := 0; p < n && d.err == nil; p++ {
		c := d.count(4)
		if d.err == nil && c != positive[p] {
			d.fail("protein %d ranking lists %d functions, row has %d positive scores", p, c, positive[p])
		}
		start := len(all)
		for i := 0; i < c && d.err == nil; i++ {
			f := d.index(nf, "ranked function")
			if d.err != nil {
				break
			}
			cur := predict.Ranked{Function: f, Score: ix.cols[f*n+p]}
			if cur.Score <= 0 {
				d.fail("protein %d ranks function %d with non-positive score", p, f)
				break
			}
			if i > 0 && !all[len(all)-1].Before(cur) {
				d.fail("protein %d ranking out of order at position %d", p, i)
				break
			}
			all = append(all, cur)
		}
		ix.ranked[p] = all[start:len(all):len(all)]
	}
	if d.err != nil {
		return nil, d.err
	}
	return ix, nil
}
