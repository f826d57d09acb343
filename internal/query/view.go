package query

import (
	"fmt"
	"slices"
	"strconv"

	"lamofinder/internal/artifact"
	"lamofinder/internal/jsonx"
	"lamofinder/internal/par"
	"lamofinder/internal/predict"
)

// View is the columnar binding the engine executes over. Scores and
// rankings are not copied: the view reads the artifact's ScoreIndex, whose
// category-major matrix lets bulk plans scan one contiguous stride-1
// column per category and whose per-protein rankings are what /v1/predict
// serves. Beside the index the view keeps what plans filter and print:
// the degree column, the annotated bitset, and the name table; and, built
// once per model load, what every row would otherwise recompute: each
// positive score's JSON text, each protein and category name already
// quoted, and each category's positive cells ranked by pairBefore.
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

	// scoreText[f] value p is the JSON text of protein p's category-f
	// score when it is positive and empty otherwise (only positive scores
	// ever emit); nameText and fnText hold the quoted protein and category
	// names. Each renders exactly what jsonx writes for the value.
	scoreText        []texts
	nameText, fnText texts
	// byCategory[f] lists the proteins with a positive category-f score,
	// best first by pairBefore: a group_by top-k takes its first k live
	// entries.
	byCategory [][]int32
	// width[c] is the longest text projected column c can print.
	width [colScore + 1]int

	digest string
}

// texts is a packed list of pre-encoded JSON values: value i is
// buf[off[i]:off[i+1]].
type texts struct {
	buf []byte
	off []uint32
	max int // length of the longest value
}

func newTexts(n, size int) texts {
	return texts{buf: make([]byte, 0, size), off: make([]uint32, 1, n+1)}
}

// next ends the value whose bytes were appended to buf since the last
// call.
func (t *texts) next() {
	if l := len(t.buf) - int(t.off[len(t.off)-1]); l > t.max {
		t.max = l
	}
	t.off = append(t.off, uint32(len(t.buf)))
}

// at returns value i (read-only).
//
// alloc-budget: 0
func (t *texts) at(i int) []byte { return t.buf[t.off[i]:t.off[i+1]] }

// NewView binds the columnar view of an indexed artifact: one linear pass
// over the proteins for the attribute columns and names, and one over the
// score matrix to encode every positive score and rank each category's
// positive cells, on up to workers goroutines (0 = GOMAXPROCS).
func NewView(art *artifact.Artifact, workers int) (*View, error) {
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
		nameText:  newTexts(n, 8*n),
		digest:    digest,
	}
	maxDegree := 0
	for p := 0; p < n; p++ {
		d := art.Graph.Degree(p)
		maxDegree = max(maxDegree, d)
		v.degree[p] = int32(d)
		name := art.Graph.Name(p)
		v.names[p] = name
		if _, dup := v.byName[name]; !dup {
			v.byName[name] = p
		}
		if len(art.Functions[p]) > 0 {
			v.annotated[p>>6] |= 1 << (p & 63)
		}
		v.nameText.buf = jsonx.AppendString(v.nameText.buf, name)
		v.nameText.next()
	}
	v.fnText = newTexts(v.nf, 16*v.nf)
	for _, name := range v.fnNames {
		v.fnText.buf = jsonx.AppendString(v.fnText.buf, name)
		v.fnText.next()
	}
	v.rankCategories(workers)
	v.width[colProtein] = v.nameText.max
	v.width[colDegree] = len(strconv.Itoa(maxDegree))
	v.width[colFunction] = len(strconv.Itoa(max(v.nf-1, 0)))
	v.width[colName] = v.fnText.max
	for _, t := range v.scoreText {
		v.width[colScore] = max(v.width[colScore], t.max)
	}
	return v, nil
}

// rowBound returns the most bytes appendRow can write for one row of
// projection proj: ",[" and "]", a comma between columns, and each
// column's longest text.
func (v *View) rowBound(proj []uint8) int {
	n := len(proj) + 2
	for _, c := range proj {
		n += v.width[c]
	}
	return n
}

// rankCategories encodes every positive score into its category's
// scoreText and ranks each category's positive cells into byCategory,
// whose lists share one backing array. Categories run on up to workers
// goroutines, each writing only its own slots.
func (v *View) rankCategories(workers int) {
	// start[f] is where category f's ranking begins in the backing array.
	start := make([]int, v.nf+1)
	for f := 0; f < v.nf; f++ {
		m := 0
		for _, s := range v.Column(f) {
			if s > 0 {
				m++
			}
		}
		start[f+1] = start[f] + m
	}
	ranked := make([]int32, start[v.nf])
	v.scoreText = make([]texts, v.nf)
	v.byCategory = make([][]int32, v.nf)
	par.Do(v.nf, workers, func(f int) {
		m := start[f+1] - start[f]
		text := newTexts(v.n, 20*m)
		cells := make([]pair, 0, m)
		for p, s := range v.Column(f) {
			if s > 0 {
				text.buf = jsonx.AppendFloat(text.buf, s)
				cells = append(cells, pair{int32(p), s})
			}
			text.next()
		}
		slices.SortFunc(cells, comparePairs)
		cat := ranked[start[f]:start[f+1]:start[f+1]]
		for i, c := range cells {
			cat[i] = c.p
		}
		v.scoreText[f], v.byCategory[f] = text, cat
	})
}

// comparePairs orders cells by pairBefore, for slices.SortFunc.
func comparePairs(a, b pair) int {
	if pairBefore(a, b) {
		return -1
	}
	if pairBefore(b, a) {
		return 1
	}
	return 0
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

// Ranking returns protein p's full descending ranking (read-only).
//
// alloc-budget: 0
func (v *View) Ranking(p int) []predict.Ranked { return v.ix.Ranking(p) }

// Column returns category f's contiguous score column (read-only).
func (v *View) Column(f int) []float64 { return v.ix.Column(f) }

// ScoreJSON returns protein p's category-f score as JSON text, the bytes
// jsonx.AppendFloat writes for it (read-only). It is empty unless the
// score is positive; every entry of a ranking has it.
//
// alloc-budget: 0
func (v *View) ScoreJSON(p, f int) []byte { return v.scoreText[f].at(p) }

// FunctionJSON returns category f's name as a quoted JSON string
// (read-only).
//
// alloc-budget: 0
func (v *View) FunctionJSON(f int) []byte { return v.fnText.at(f) }
