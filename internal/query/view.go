package query

import (
	"fmt"

	"lamofinder/internal/artifact"
	"lamofinder/internal/predict"
)

// View is the columnar binding the engine executes over. Scores and
// rankings are not copied: the view reads the artifact's ScoreIndex, whose
// category-major matrix lets bulk plans scan one contiguous stride-1
// column per category and whose per-protein rankings are what /v1/predict
// serves. Beside the index the view keeps only what plans filter and
// print: the degree column, the annotated bitset, and the name table.
//
// A View is immutable after construction; the daemon shares one across
// every request goroutine, and it pins to the model snapshot it was built
// from via the artifact digest.
type View struct {
	n  int // proteins
	nf int // functional categories

	ix *artifact.ScoreIndex
	// degree[p] is protein p's interaction degree.
	degree []int32
	// annotated is a bitset: bit p set iff protein p carries at least one
	// known functional annotation (the paper's "annotated" set; its
	// complement is the prediction target).
	annotated []uint64
	// names[p] is protein p's display name; byName resolves a name back to
	// the lowest vertex carrying it.
	names  []string
	byName map[string]int
	// fnNames[f] is category f's display name.
	fnNames []string

	digest string
}

// NewView binds the columnar view of an indexed artifact. Binding copies
// no scores and is one linear pass over the proteins, so the second
// argument (a worker count) is unused; it stays so existing callers keep
// compiling.
func NewView(art *artifact.Artifact, _ int) (*View, error) {
	if art.Index == nil {
		return nil, fmt.Errorf("query: artifact has no score index")
	}
	digest, err := art.Digest()
	if err != nil {
		return nil, err
	}
	n := art.Graph.N()
	v := &View{
		n:         n,
		nf:        art.NumFunctions,
		ix:        art.Index,
		degree:    make([]int32, n),
		annotated: make([]uint64, (n+63)/64),
		names:     make([]string, n),
		byName:    make(map[string]int, n),
		fnNames:   art.FunctionNames,
		digest:    digest,
	}
	for p := 0; p < n; p++ {
		v.degree[p] = int32(art.Graph.Degree(p))
		name := art.Graph.Name(p)
		v.names[p] = name
		if _, dup := v.byName[name]; !dup {
			v.byName[name] = p
		}
		if len(art.Functions[p]) > 0 {
			v.annotated[p>>6] |= 1 << (p & 63)
		}
	}
	return v, nil
}

// NumProteins returns the number of proteins in the view.
func (v *View) NumProteins() int { return v.n }

// NumFunctions returns the number of functional categories.
func (v *View) NumFunctions() int { return v.nf }

// Digest returns the digest of the artifact the view was built from.
func (v *View) Digest() string { return v.digest }

// Resolve maps a protein name to its vertex id. A name shared by several
// vertices resolves to the lowest of them.
//
// alloc-budget: 0
func (v *View) Resolve(name string) (int, bool) {
	p, ok := v.byName[name]
	return p, ok
}

// Name returns protein p's display name.
func (v *View) Name(p int) string { return v.names[p] }

// Ranking returns protein p's full descending ranking (read-only).
//
// alloc-budget: 0
func (v *View) Ranking(p int) []predict.Ranked { return v.ix.Ranking(p) }

// Column returns category f's contiguous score column (read-only).
func (v *View) Column(f int) []float64 { return v.ix.Column(f) }

// Degree returns protein p's interaction degree.
func (v *View) Degree(p int) int { return int(v.degree[p]) }

// Annotated reports whether protein p carries a known annotation.
func (v *View) Annotated(p int) bool {
	return v.annotated[p>>6]&(1<<(p&63)) != 0
}
