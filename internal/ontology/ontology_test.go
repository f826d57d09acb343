package ontology

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// figure1 builds the paper's Figure-1 example DAG (with the G08 is-a G05
// edge required by the text, Table 3 and Table 4 — see DESIGN.md for the
// Table 1 inconsistency this implies).
func figure1(t *testing.T) *Ontology {
	t.Helper()
	b := NewBuilder()
	for i := 1; i <= 11; i++ {
		b.AddTerm(gid(i), "")
	}
	rel := func(c, p int, r RelType) { b.AddRelation(gid(c), gid(p), r) }
	rel(2, 1, IsA)
	rel(3, 1, IsA)
	rel(4, 2, IsA)
	rel(5, 2, IsA)
	rel(5, 3, IsA)
	rel(6, 3, PartOf)
	rel(8, 3, IsA)
	rel(7, 4, IsA)
	rel(8, 4, IsA)
	rel(8, 5, IsA)
	rel(9, 5, IsA)
	rel(10, 5, IsA)
	rel(11, 5, IsA)
	rel(9, 6, PartOf)
	rel(10, 7, IsA)
	rel(10, 8, IsA)
	rel(11, 8, IsA)
	o, err := b.Build()
	if err != nil {
		t.Fatalf("figure1 build: %v", err)
	}
	return o
}

func gid(i int) string {
	return "G" + string([]byte{byte('0' + i/10), byte('0' + i%10)})
}

// figure1Direct is the "Num. of proteins annotated with t" column of Table 1.
func figure1Direct(o *Ontology) []int {
	counts := map[string]int{
		"G01": 0, "G02": 0, "G03": 20, "G04": 100, "G05": 70, "G06": 150,
		"G07": 10, "G08": 25, "G09": 100, "G10": 90, "G11": 20,
	}
	d := make([]int, o.NumTerms())
	for id, c := range counts {
		d[o.Index(id)] = c
	}
	return d
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder()
	i := b.AddTerm("A", "alpha")
	j := b.AddTerm("A", "") // merged
	if i != j {
		t.Fatalf("duplicate term got new index")
	}
	b.AddRelation("B", "A", IsA)
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if o.NumTerms() != 2 || o.Name(o.Index("A")) != "alpha" {
		t.Errorf("terms=%d name=%q", o.NumTerms(), o.Name(o.Index("A")))
	}
	if o.Index("missing") != -1 {
		t.Error("missing term index should be -1")
	}
}

func TestBuildRejectsCycle(t *testing.T) {
	b := NewBuilder()
	b.AddRelation("A", "B", IsA)
	b.AddRelation("B", "C", IsA)
	b.AddRelation("C", "A", IsA)
	if _, err := b.Build(); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestBuildRejectsSelfRelation(t *testing.T) {
	b := NewBuilder()
	b.AddRelation("A", "A", IsA)
	if _, err := b.Build(); err == nil {
		t.Fatal("self relation accepted")
	}
}

func TestAncestorsDescendants(t *testing.T) {
	o := figure1(t)
	g10 := o.Index("G10")
	anc := o.Ancestors(g10)
	want := map[string]bool{"G01": true, "G02": true, "G03": true, "G04": true,
		"G05": true, "G07": true, "G08": true}
	if len(anc) != len(want) {
		t.Fatalf("ancestors of G10: got %d, want %d", len(anc), len(want))
	}
	for _, a := range anc {
		if !want[o.ID(a)] {
			t.Errorf("unexpected ancestor %s", o.ID(a))
		}
	}
	desc := o.Descendants(o.Index("G05"))
	wantD := map[string]bool{"G08": true, "G09": true, "G10": true, "G11": true}
	if len(desc) != len(wantD) {
		t.Fatalf("descendants of G05: %d, want %d", len(desc), len(wantD))
	}
	if !o.IsAncestorOrSelf(o.Index("G05"), o.Index("G10")) {
		t.Error("G05 should be ancestor of G10")
	}
	if o.IsAncestorOrSelf(o.Index("G10"), o.Index("G05")) {
		t.Error("G10 is not an ancestor of G05")
	}
}

func TestTable1WeightsExact(t *testing.T) {
	// Reproduces Table 1 of the paper. Two known deviations follow from the
	// G08 is-a G05 edge that Tables 3/4 require: G05's inclusive count is
	// 305 (paper prints 280) and its weight 0.52 (paper prints 0.48); G02's
	// row is unaffected. All other rows must match exactly.
	o := figure1(t)
	direct := figure1Direct(o)
	incl := o.InclusiveCounts(direct)
	w := o.ComputeWeights(direct)
	wantIncl := map[string]int{
		"G01": 585, "G02": 415, "G03": 475, "G04": 245, "G05": 305,
		"G06": 250, "G07": 100, "G08": 135, "G09": 100, "G10": 90, "G11": 20,
	}
	wantW := map[string]float64{
		"G01": 1.00, "G02": 0.71, "G03": 0.81, "G04": 0.42, "G05": 0.52,
		"G06": 0.43, "G07": 0.17, "G08": 0.23, "G09": 0.17, "G10": 0.15, "G11": 0.03,
	}
	for id, want := range wantIncl {
		if got := incl[o.Index(id)]; got != want {
			t.Errorf("inclusive count %s = %d, want %d", id, got, want)
		}
	}
	for id, want := range wantW {
		if got := w[o.Index(id)]; math.Abs(got-want) > 0.005 {
			t.Errorf("weight %s = %.4f, want %.2f", id, got, want)
		}
	}
}

func TestInformativeAndBorderFC(t *testing.T) {
	o := figure1(t)
	direct := figure1Direct(o)
	inf := o.InformativeFC(direct, 30)
	wantInf := map[string]bool{"G04": true, "G05": true, "G06": true, "G09": true, "G10": true}
	if len(inf) != len(wantInf) {
		t.Fatalf("informative FC: %d, want %d", len(inf), len(wantInf))
	}
	for _, t2 := range inf {
		if !wantInf[o.ID(t2)] {
			t.Errorf("unexpected informative FC %s", o.ID(t2))
		}
	}
	border := o.BorderInformativeFC(direct, 30)
	wantB := map[string]bool{"G04": true, "G05": true, "G06": true}
	if len(border) != len(wantB) {
		t.Fatalf("border informative FC: %v", idsOf(o, border))
	}
	for _, t2 := range border {
		if !wantB[o.ID(t2)] {
			t.Errorf("unexpected border FC %s", o.ID(t2))
		}
	}
}

func TestLabelSpace(t *testing.T) {
	o := figure1(t)
	direct := figure1Direct(o)
	space := o.LabelSpace(direct, 30)
	// Border = G04,G05,G06; descendants add G07..G11 and G09.
	want := map[string]bool{"G04": true, "G05": true, "G06": true, "G07": true,
		"G08": true, "G09": true, "G10": true, "G11": true}
	for i := 0; i < o.NumTerms(); i++ {
		if space[i] != want[o.ID(i)] {
			t.Errorf("label space %s = %v, want %v", o.ID(i), space[i], want[o.ID(i)])
		}
	}
}

func TestLCATable4Rows(t *testing.T) {
	// Table 4 of the paper: minimum common father labels per vertex.
	o := figure1(t)
	w := o.ComputeWeights(figure1Direct(o))
	lca := func(a, b string) string {
		r := o.LCA(w, o.Index(a), o.Index(b))
		return o.ID(r)
	}
	cases := []struct{ a, b, want string }{
		{"G04", "G09", "G02"}, // row 1
		{"G09", "G09", "G09"},
		{"G10", "G09", "G05"},
		{"G03", "G10", "G03"}, // row 2
		{"G03", "G11", "G03"},
		{"G10", "G10", "G10"},
		{"G10", "G11", "G08"},
		{"G08", "G03", "G03"}, // row 3
		{"G08", "G05", "G05"},
		{"G08", "G07", "G04"},
		{"G07", "G05", "G02"}, // row 4
		{"G09", "G05", "G05"},
	}
	for _, c := range cases {
		if got := lca(c.a, c.b); got != c.want {
			t.Errorf("LCA(%s,%s) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestLinSimilarityProperties(t *testing.T) {
	o := figure1(t)
	w := o.ComputeWeights(figure1Direct(o))
	g9, g8, g10 := o.Index("G09"), o.Index("G08"), o.Index("G10")
	if got := o.Lin(w, g9, g9); got != 1 {
		t.Errorf("Lin(t,t) = %v, want 1", got)
	}
	if got := o.Lin(w, g9, g8); got != o.Lin(w, g8, g9) {
		t.Error("Lin not symmetric")
	}
	// G10 and G07: G07 is an ancestor of G10 with low weight -> high sim.
	g7 := o.Index("G07")
	hi := o.Lin(w, g10, g7)
	// G09 and G07 share only G02 -> low sim.
	lo := o.Lin(w, g9, g7)
	if hi <= lo {
		t.Errorf("Lin ordering wrong: parent-child %.3f <= remote %.3f", hi, lo)
	}
	for _, pair := range [][2]int{{g9, g8}, {g10, g7}, {g9, g7}} {
		v := o.Lin(w, pair[0], pair[1])
		if v < 0 || v > 1 {
			t.Errorf("Lin out of range: %v", v)
		}
	}
}

func TestLinValueSpotCheck(t *testing.T) {
	// Hand-computed: ST(G10,G07): lca=G07 (w=100/585).
	o := figure1(t)
	w := o.ComputeWeights(figure1Direct(o))
	wa := 90.0 / 585
	wb := 100.0 / 585
	want := 2 * math.Log(wb) / (math.Log(wa) + math.Log(wb))
	got := o.Lin(w, o.Index("G10"), o.Index("G07"))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Lin(G10,G07) = %v, want %v", got, want)
	}
}

func TestLinRootIsZero(t *testing.T) {
	o := figure1(t)
	w := o.ComputeWeights(figure1Direct(o))
	// G04 and G06 share only G01/G03? G04 anc: G02,G01; G06 anc: G03,G01.
	// Common: G01 (weight 1) -> ST = 0.
	if got := o.Lin(w, o.Index("G04"), o.Index("G06")); got != 0 {
		t.Errorf("Lin through root = %v, want 0", got)
	}
}

func TestCorpusBasics(t *testing.T) {
	o := figure1(t)
	c := NewCorpus(o, 3)
	c.Annotate(0, o.Index("G04"))
	c.Annotate(0, o.Index("G04")) // dup ignored
	c.Annotate(0, o.Index("G09"))
	c.Annotate(2, o.Index("G10"))
	if got := len(c.Terms(0)); got != 2 {
		t.Errorf("protein 0 has %d terms, want 2", got)
	}
	if c.Annotated(1) {
		t.Error("protein 1 should be unannotated")
	}
	if c.NumAnnotated() != 2 {
		t.Errorf("NumAnnotated = %d", c.NumAnnotated())
	}
	dc := c.DirectCounts()
	if dc[o.Index("G04")] != 1 || dc[o.Index("G10")] != 1 {
		t.Errorf("direct counts wrong: %v", dc)
	}
}

// WriteOBO serializes the ontology in the minimal OBO subset understood by
// ParseOBO, with terms in index order: the parser's round-trip oracle.
func WriteOBO(w io.Writer, o *Ontology) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "format-version: 1.2")
	for t := 0; t < o.NumTerms(); t++ {
		fmt.Fprintln(bw)
		fmt.Fprintln(bw, "[Term]")
		fmt.Fprintf(bw, "id: %s\n", o.ID(t))
		if o.Name(t) != "" {
			fmt.Fprintf(bw, "name: %s\n", o.Name(t))
		}
		parents := o.Parents(t)
		rels := o.ParentRels(t)
		idx := make([]int, len(parents))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return parents[idx[a]] < parents[idx[b]] })
		for _, i := range idx {
			if rels[i] == PartOf {
				fmt.Fprintf(bw, "relationship: part_of %s\n", o.ID(parents[i]))
			} else {
				fmt.Fprintf(bw, "is_a: %s\n", o.ID(parents[i]))
			}
		}
	}
	return bw.Flush()
}

func TestOBORoundTrip(t *testing.T) {
	o := figure1(t)
	var sb strings.Builder
	if err := WriteOBO(&sb, o); err != nil {
		t.Fatal(err)
	}
	o2, err := ParseOBO(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if o2.NumTerms() != o.NumTerms() {
		t.Fatalf("terms: %d vs %d", o2.NumTerms(), o.NumTerms())
	}
	for i := 0; i < o.NumTerms(); i++ {
		id := o.ID(i)
		j := o2.Index(id)
		if j < 0 {
			t.Fatalf("term %s lost", id)
		}
		if len(o.Parents(i)) != len(o2.Parents(j)) {
			t.Errorf("term %s parent count differs", id)
		}
	}
	// Relation types survive.
	g6 := o2.Index("G06")
	if o2.ParentRels(g6)[0] != PartOf {
		t.Error("part_of relation lost in round trip")
	}
}

func TestParseOBOSkipsObsolete(t *testing.T) {
	src := `format-version: 1.2

[Term]
id: X:1
name: live

[Term]
id: X:2
name: dead
is_obsolete: true

[Typedef]
id: part_of
`
	o, err := ParseOBO(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if o.Index("X:2") != -1 || o.Index("X:1") == -1 {
		t.Errorf("obsolete handling wrong: %v %v", o.Index("X:1"), o.Index("X:2"))
	}
}

func TestParseOBOComments(t *testing.T) {
	src := `[Term]
id: X:1

[Term]
id: X:3

[Term]
id: X:2
is_a: X:1 ! the root
relationship: part_of X:3 ! comment stripped
`
	o, err := ParseOBO(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	x2 := o.Index("X:2")
	if len(o.Parents(x2)) != 2 {
		t.Fatalf("X:2 has %d parents, want 2", len(o.Parents(x2)))
	}
	// Duplicate (child,parent) pairs are deduped even across relation types.
	src2 := src + "is_a: X:3\n"
	o2, err := ParseOBO(strings.NewReader(src2))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(o2.Parents(o2.Index("X:2"))); got != 2 {
		t.Errorf("duplicate parent pair not deduped: %d parents", got)
	}
}

func TestSyntheticOntologyShape(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	o := Synthetic(DefaultSyntheticConfig("BP", 500), rng)
	if o.NumTerms() != 500 {
		t.Fatalf("terms = %d", o.NumTerms())
	}
	roots := o.Roots()
	if len(roots) != 1 || roots[0] != 0 {
		t.Fatalf("roots = %v, want [0]", roots)
	}
	// Every term reaches the root.
	for t2 := 1; t2 < o.NumTerms(); t2++ {
		if !o.IsAncestorOrSelf(0, t2) {
			t.Fatalf("term %d does not reach root", t2)
		}
	}
	if len(o.Leaves()) < 100 {
		t.Errorf("too few leaves: %d", len(o.Leaves()))
	}
}

// AnnotateRandom fills corpus c with random direct annotations: each
// protein is annotated with probability coverage; annotated proteins get
// 1 + Poisson(meanExtra) direct terms drawn uniformly from the ontology's
// leaf terms (specific annotations, as biologists record them). The
// property tests draw their corpora from it.
func AnnotateRandom(c *Corpus, coverage, meanExtra float64, rng *rand.Rand) {
	leaves := c.o.Leaves()
	if len(leaves) == 0 {
		return
	}
	for p := 0; p < c.NumProteins(); p++ {
		if rng.Float64() >= coverage {
			continue
		}
		k := 1 + poisson(meanExtra, rng)
		for i := 0; i < k; i++ {
			c.Annotate(p, leaves[rng.Intn(len(leaves))])
		}
	}
}

// poisson draws from a Poisson distribution with the given mean (Knuth).
func poisson(mean float64, rng *rand.Rand) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

func TestSyntheticAnnotationCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	o := Synthetic(DefaultSyntheticConfig("BP", 300), rng)
	c := NewCorpus(o, 1000)
	AnnotateRandom(c, 0.85, 1.5, rng)
	cov := float64(c.NumAnnotated()) / 1000
	if cov < 0.80 || cov > 0.90 {
		t.Errorf("coverage = %.3f, want ~0.85", cov)
	}
}

func TestWeightsMonotoneUpDAG(t *testing.T) {
	// Property: a parent's weight is >= each child's weight.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := Synthetic(DefaultSyntheticConfig("X", 120), rng)
		c := NewCorpus(o, 400)
		AnnotateRandom(c, 0.9, 2, rng)
		w := o.ComputeWeights(c.DirectCounts())
		for t2 := 0; t2 < o.NumTerms(); t2++ {
			for _, p := range o.Parents(t2) {
				if w[p] < w[t2]-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLCAWithLowestWeight(t *testing.T) {
	// Property: the LCA is a common ancestor and no common ancestor has a
	// strictly smaller weight.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := Synthetic(DefaultSyntheticConfig("X", 80), rng)
		c := NewCorpus(o, 300)
		AnnotateRandom(c, 0.9, 2, rng)
		w := o.ComputeWeights(c.DirectCounts())
		for trial := 0; trial < 30; trial++ {
			a, b := rng.Intn(80), rng.Intn(80)
			l := o.LCA(w, a, b)
			if l < 0 {
				return false // single-rooted: must share the root
			}
			if !o.IsAncestorOrSelf(l, a) || !o.IsAncestorOrSelf(l, b) {
				return false
			}
			for t2 := 0; t2 < 80; t2++ {
				if o.IsAncestorOrSelf(t2, a) && o.IsAncestorOrSelf(t2, b) && w[t2] < w[l]-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func idsOf(o *Ontology, ts []int) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = o.ID(t)
	}
	return out
}

func TestParseOBOAltIDs(t *testing.T) {
	src := `[Term]
id: X:1
alt_id: X:9
alt_id: X:8

[Term]
id: X:2
is_a: X:1
`
	o, err := ParseOBO(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if o.Index("X:9") != o.Index("X:1") || o.Index("X:8") != o.Index("X:1") {
		t.Errorf("alt_id not aliased: %d %d vs %d", o.Index("X:9"), o.Index("X:8"), o.Index("X:1"))
	}
	if o.Index("X:2") == o.Index("X:1") {
		t.Error("distinct terms merged")
	}
}
