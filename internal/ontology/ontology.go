// Package ontology implements the Gene Ontology substrate of the paper: a
// directed acyclic graph of terms related by "is-a" and "part-of" edges,
// genome-specific term weights (Lord et al. 2002), informative and border
// informative functional classes (Zhou et al. 2002), minimum-weight lowest
// common ancestors, and Lin (1998) information-theoretic term similarity.
package ontology

import "fmt"

// RelType is the kind of child-to-parent relation in the GO DAG.
type RelType uint8

// Relation kinds, mirroring the two GO edge types the paper uses.
const (
	IsA RelType = iota
	PartOf
)

// String returns the OBO-style name of the relation.
func (r RelType) String() string {
	if r == PartOf {
		return "part_of"
	}
	return "is_a"
}

// Builder accumulates terms and relations and validates them into an
// immutable Ontology.
type Builder struct {
	ids    []string
	names  []string
	index  map[string]int
	pEdges [][2]int // child, parent (term indices)
	pRels  []RelType
}

// NewBuilder returns an empty ontology builder.
func NewBuilder() *Builder {
	return &Builder{index: map[string]int{}}
}

// AddTerm registers a term id with a human-readable name; repeated ids are
// merged (the first non-empty name wins). It returns the term's index.
func (b *Builder) AddTerm(id, name string) int {
	if i, ok := b.index[id]; ok {
		if b.names[i] == "" {
			b.names[i] = name
		}
		return i
	}
	i := len(b.ids)
	b.ids = append(b.ids, id)
	b.names = append(b.names, name)
	b.index[id] = i
	return i
}

// AddRelation records that child is related to parent (is-a or part-of).
// Unknown ids are created implicitly.
func (b *Builder) AddRelation(child, parent string, rel RelType) {
	c := b.AddTerm(child, "")
	p := b.AddTerm(parent, "")
	b.pEdges = append(b.pEdges, [2]int{c, p})
	b.pRels = append(b.pRels, rel)
}

// Build validates the accumulated structure (acyclic, no self-relations)
// and returns the immutable Ontology.
func (b *Builder) Build() (*Ontology, error) {
	n := len(b.ids)
	o := &Ontology{
		ids:     append([]string(nil), b.ids...),
		names:   append([]string(nil), b.names...),
		index:   make(map[string]int, n),
		parents: make([][]int, n),
		prels:   make([][]RelType, n),
		childs:  make([][]int, n),
	}
	for id, i := range b.index {
		o.index[id] = i
	}
	seen := make(map[[2]int]bool, len(b.pEdges))
	for k, e := range b.pEdges {
		c, p := e[0], e[1]
		if c == p {
			return nil, fmt.Errorf("ontology: self relation on term %q", b.ids[c])
		}
		if seen[e] {
			continue
		}
		seen[e] = true
		o.parents[c] = append(o.parents[c], p)
		o.prels[c] = append(o.prels[c], b.pRels[k])
		o.childs[p] = append(o.childs[p], c)
	}
	topo, err := o.topoSort()
	if err != nil {
		return nil, err
	}
	o.topo = topo
	o.buildAncestors()
	return o, nil
}

// Ontology is an immutable GO-style DAG. Terms are referenced by dense
// integer indices; use Index/ID to convert.
type Ontology struct {
	ids     []string
	names   []string
	index   map[string]int
	parents [][]int
	prels   [][]RelType
	childs  [][]int
	topo    []int    // parents before children
	anc     []bitset // ancestors including self
	ancList [][]int  // proper ancestors, ascending, one shared backing array
}

// NumTerms returns the number of terms.
func (o *Ontology) NumTerms() int { return len(o.ids) }

// ID returns the identifier of term t.
func (o *Ontology) ID(t int) string { return o.ids[t] }

// Name returns the display name of term t (may be empty).
func (o *Ontology) Name(t int) string { return o.names[t] }

// Index returns the index of the term with the given id, or -1.
func (o *Ontology) Index(id string) int {
	if i, ok := o.index[id]; ok {
		return i
	}
	return -1
}

// Parents returns the parent indices of t. The slice is owned by the
// ontology and must not be modified.
func (o *Ontology) Parents(t int) []int { return o.parents[t] }

// ParentRels returns, parallel to Parents, the relation type of each edge.
func (o *Ontology) ParentRels(t int) []RelType { return o.prels[t] }

// Children returns the child indices of t.
func (o *Ontology) Children(t int) []int { return o.childs[t] }

// Roots returns all terms with no parents.
func (o *Ontology) Roots() []int {
	var rs []int
	for t := range o.parents {
		if len(o.parents[t]) == 0 {
			rs = append(rs, t)
		}
	}
	return rs
}

func (o *Ontology) topoSort() ([]int, error) {
	n := len(o.ids)
	indeg := make([]int, n) // number of parents not yet placed
	for t := 0; t < n; t++ {
		indeg[t] = len(o.parents[t])
	}
	queue := make([]int, 0, n)
	for t := 0; t < n; t++ {
		if indeg[t] == 0 {
			queue = append(queue, t)
		}
	}
	topo := make([]int, 0, n)
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		topo = append(topo, t)
		for _, c := range o.childs[t] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(topo) != n {
		return nil, fmt.Errorf("ontology: cycle detected (%d of %d terms sorted)", len(topo), n)
	}
	return topo, nil
}

func (o *Ontology) buildAncestors() {
	n := len(o.ids)
	o.anc = make([]bitset, n)
	for _, t := range o.topo { // parents first
		bs := newBitset(n)
		bs.set(t)
		for _, p := range o.parents[t] {
			bs.or(o.anc[p])
		}
		o.anc[t] = bs
	}
	// Flat-pack the proper-ancestor lists once so Ancestors can hand out
	// shared subslices instead of materializing a fresh slice per call
	// (the labeler walks these on its border-marking pass).
	total := 0
	for t := 0; t < n; t++ {
		total += o.anc[t].count() - 1
	}
	flat := make([]int, total)
	o.ancList = make([][]int, n)
	pos := 0
	for t := 0; t < n; t++ {
		start := pos
		o.anc[t].each(func(a int) {
			if a != t {
				flat[pos] = a
				pos++
			}
		})
		o.ancList[t] = flat[start:pos:pos]
	}
}

// IsAncestorOrSelf reports whether a is an ancestor of d or a == d.
func (o *Ontology) IsAncestorOrSelf(a, d int) bool { return o.anc[d].get(a) }

// Ancestors returns the ancestors of t (excluding t), sorted ascending.
// The slice is precomputed and shared across calls: it is owned by the
// ontology and must be treated as read-only (copy before modifying).
//
// alloc-budget: 0
func (o *Ontology) Ancestors(t int) []int { return o.ancList[t] }

// Weights holds the genome-specific weight w(t) of each term: the fraction
// of annotation occurrences falling on t or any of its descendants
// (Lord et al.). Roots of a single-rooted ontology get weight 1.
type Weights []float64

// ComputeWeights derives term weights from direct annotation-occurrence
// counts (one count per protein-term annotation pair).
//
// invariant: len(direct) equals the ontology's term count — the counts are
// indexed by term; a mismatched slice is a caller bug, not a data state.
func (o *Ontology) ComputeWeights(direct []int) Weights {
	n := len(o.ids)
	if len(direct) != n {
		panic("ontology: direct count length mismatch")
	}
	incl := make([]int64, n)
	// Inclusive count via descendant sets: incl(t) = sum of direct counts
	// over t and all distinct descendants. Iterate terms; add direct[d] to
	// every ancestor of d (including d).
	for d := 0; d < n; d++ {
		if direct[d] == 0 {
			continue
		}
		o.anc[d].each(func(a int) { incl[a] += int64(direct[d]) })
	}
	var total int64
	for _, c := range direct {
		total += int64(c)
	}
	w := make(Weights, n)
	if total == 0 {
		return w
	}
	for t := 0; t < n; t++ {
		w[t] = float64(incl[t]) / float64(total)
	}
	return w
}

// InclusiveCounts returns, for each term, the total annotation occurrences
// on the term or any descendant — the "Num of proteins annotated with t and
// its descendants" column of the paper's Table 1.
func (o *Ontology) InclusiveCounts(direct []int) []int {
	n := len(o.ids)
	incl := make([]int, n)
	for d := 0; d < n; d++ {
		if direct[d] == 0 {
			continue
		}
		o.anc[d].each(func(a int) { incl[a] += direct[d] })
	}
	return incl
}

// InformativeFC returns the terms with at least minDirect directly annotated
// proteins (Zhou et al. use 30).
func (o *Ontology) InformativeFC(direct []int, minDirect int) []int {
	var out []int
	for t, c := range direct {
		if c >= minDirect {
			out = append(out, t)
		}
	}
	return out
}

// BorderInformativeFC returns the informative FC that have no informative
// proper ancestor: the most general usable labels.
func (o *Ontology) BorderInformativeFC(direct []int, minDirect int) []int {
	informative := make([]bool, len(o.ids))
	for t, c := range direct {
		informative[t] = c >= minDirect
	}
	var out []int
	for t := range o.ids {
		if !informative[t] {
			continue
		}
		ok := true
		o.anc[t].each(func(a int) {
			if a != t && informative[a] {
				ok = false
			}
		})
		if ok {
			out = append(out, t)
		}
	}
	return out
}

// addAlias makes Index resolve the alternative id to the primary term
// (OBO alt_id support). Existing primary ids are never overridden.
func (o *Ontology) addAlias(alt, primary string) {
	if _, exists := o.index[alt]; exists {
		return
	}
	if i, ok := o.index[primary]; ok {
		o.index[alt] = i
	}
}
