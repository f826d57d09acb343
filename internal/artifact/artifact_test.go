package artifact

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"strings"
	"testing"

	"lamofinder/internal/graph"
	"lamofinder/internal/label"
	"lamofinder/internal/ontology"
	"lamofinder/internal/predict"
)

// testArtifact hand-builds a small but fully populated, indexed artifact: a
// 6-protein network, a 5-term ontology slice, annotations, and one labeled
// triangle motif with two occurrences.
func testArtifact(t testing.TB) *Artifact {
	t.Helper()
	a := unindexedArtifact(t)
	a.BuildIndex(1)
	return a
}

// unindexedArtifact is testArtifact straight out of Build, before
// BuildIndex.
func unindexedArtifact(t testing.TB) *Artifact {
	t.Helper()
	b := ontology.NewBuilder()
	b.AddTerm("T:root", "root")
	b.AddTerm("T:a", "alpha")
	b.AddTerm("T:b", "beta")
	b.AddTerm("T:a1", "alpha leaf")
	b.AddTerm("T:b1", "beta leaf")
	b.AddRelation("T:a", "T:root", ontology.IsA)
	b.AddRelation("T:b", "T:root", ontology.PartOf)
	b.AddRelation("T:a1", "T:a", ontology.IsA)
	b.AddRelation("T:b1", "T:b", ontology.IsA)
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	g := graph.New(6)
	for v := 0; v < 6; v++ {
		g.SetName(v, []string{"p1", "p2", "p3", "p4", "p5", "p6"}[v])
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		g.AddEdge(e[0], e[1])
	}

	task := predict.NewTask(g, 2)
	task.Functions[0] = []int{0}
	task.Functions[1] = []int{0, 1}
	task.Functions[3] = []int{1}
	task.Functions[5] = []int{0}

	corpus := ontology.NewCorpus(o, 6)
	corpus.Annotate(0, o.Index("T:a1"))
	corpus.Annotate(1, o.Index("T:a"))
	corpus.Annotate(1, o.Index("T:b1"))
	corpus.Annotate(3, o.Index("T:b"))
	corpus.Annotate(5, o.Index("T:a1"))

	tri := graph.NewDense(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	lm := &label.LabeledMotif{
		Pattern: tri,
		Labels: [][]int32{
			{int32(o.Index("T:a"))},
			{int32(o.Index("T:a1")), int32(o.Index("T:b"))},
			nil,
		},
		Occurrences: [][]int32{{0, 1, 2}, {3, 4, 5}},
		Frequency:   2,
		Uniqueness:  0.875,
	}

	a, err := Build("unit-test", "handcrafted fixture",
		task, []string{"T:a", "T:b"}, corpus, corpus.DirectCounts(), 1,
		[]*label.LabeledMotif{lm})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRoundTripByteIdentical(t *testing.T) {
	a := testArtifact(t)
	first, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := loaded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("save→load→save not byte-identical: %d vs %d bytes", len(first), len(second))
	}
	d1, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := loaded.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || len(d1) != 64 {
		t.Fatalf("digest mismatch: %q vs %q", d1, d2)
	}

	// Spot-check the reconstructed model.
	if loaded.Dataset != "unit-test" || loaded.MinDirect != 1 {
		t.Fatalf("metadata lost: %+v", loaded)
	}
	if loaded.Graph.N() != 6 || loaded.Graph.M() != 7 || loaded.Graph.Name(2) != "p3" {
		t.Fatalf("network lost: n=%d m=%d", loaded.Graph.N(), loaded.Graph.M())
	}
	if loaded.Ontology.NumTerms() != 5 || loaded.Ontology.Index("T:b1") != a.Ontology.Index("T:b1") {
		t.Fatal("ontology term indexing changed across round trip")
	}
	if len(loaded.Motifs) != 1 || loaded.Motifs[0].Frequency != 2 ||
		loaded.Motifs[0].Uniqueness != 0.875 ||
		!loaded.Motifs[0].Pattern.HasEdge(0, 2) {
		t.Fatalf("motif lost: %+v", loaded.Motifs)
	}
	if got, want := loaded.Weights[loaded.Ontology.Index("T:root")], 1.0; got != want {
		t.Fatalf("root weight %v, want %v", got, want)
	}
}

func TestScorerMatchesDirectConstruction(t *testing.T) {
	a := testArtifact(t)
	b, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	direct := a.NewScorer()
	viaFile := loaded.NewScorer()
	for p := 0; p < a.Graph.N(); p++ {
		ds, fs := direct.Scores(p), viaFile.Scores(p)
		for f := range ds {
			if ds[f] != fs[f] {
				t.Fatalf("protein %d function %d: direct %v vs loaded %v", p, f, ds[f], fs[f])
			}
		}
	}
}

// TestCoverageMatchesScorer pins Coverage, one pass over the occurrences,
// to the scorer's count of proteins with at least one motif incidence.
func TestCoverageMatchesScorer(t *testing.T) {
	for _, a := range []*Artifact{testArtifact(t), paperExample(t)} {
		got, want := a.Coverage(), a.NewScorer().Coverage()
		if got != want || got == 0 {
			t.Fatalf("%s: Coverage() = %d, NewScorer().Coverage() = %d", a.Dataset, got, want)
		}
	}
}

func TestTamperDetection(t *testing.T) {
	a := testArtifact(t)
	good, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(good); err != nil {
		t.Fatalf("pristine bytes rejected: %v", err)
	}
	// Flip one bit at a sample of offsets across header, payload and digest;
	// every variant must be rejected.
	for off := 0; off < len(good); off += 7 {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("accepted artifact with flipped bit at offset %d", off)
		}
	}
	if _, err := Decode(good[:len(good)-5]); err == nil {
		t.Fatal("accepted truncated artifact")
	}
	if _, err := Decode(good[:10]); err == nil {
		t.Fatal("accepted header-only artifact")
	}
}

// TestOldVersionsRejected: re-signed version 1, 2 and 3 files (the
// unindexed and stats-free variants this package no longer reads) fail
// Decode with an error naming the one readable version.
func TestOldVersionsRejected(t *testing.T) {
	a := testArtifact(t)
	good, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{1, 2, 3} {
		old := append([]byte(nil), good[:len(good)-32]...)
		binary.LittleEndian.PutUint32(old[len(Magic):], v)
		_, err := Decode(seal(old))
		if err == nil || !strings.Contains(err.Error(), "version 4") {
			t.Fatalf("version %d file not refused with a version-4 error: %v", v, err)
		}
	}
}

func TestVersionAndMagicErrors(t *testing.T) {
	a := testArtifact(t)
	good, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(Magic)] = 9 // version
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not refused: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("foreign magic not refused: %v", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	a := testArtifact(t)
	path := filepath.Join(t.TempDir(), "model.lamo")
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	orig, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("file round trip not byte-identical")
	}
}

func TestBuildValidation(t *testing.T) {
	a := testArtifact(t)
	task := a.Task()
	task.Functions[0] = []int{99}
	if _, err := Build("x", "", task, a.FunctionNames, a.Corpus,
		a.Corpus.DirectCounts(), 1, a.Motifs); err == nil {
		t.Fatal("Build accepted out-of-range function id")
	}
	task.Functions[0] = []int{0}
	if _, err := Build("x", "", task, []string{"only-one"}, a.Corpus,
		a.Corpus.DirectCounts(), 1, a.Motifs); err == nil {
		t.Fatal("Build accepted mismatched function names")
	}
	bad := &label.LabeledMotif{Pattern: graph.NewDense(2), Labels: make([][]int32, 2),
		Occurrences: [][]int32{{0, 99}}}
	if _, err := Build("x", "", task, a.FunctionNames, a.Corpus,
		a.Corpus.DirectCounts(), 1, []*label.LabeledMotif{bad}); err == nil {
		t.Fatal("Build accepted occurrence naming an unknown protein")
	}
}
