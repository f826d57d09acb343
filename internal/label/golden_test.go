package label

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lamofinder/internal/dataset"
	"lamofinder/internal/motif"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/label -update)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestFindConformingGolden pins FindConforming's occurrences, in order:
// every occurrence of the paper example's labeled motifs, and the first 25
// of each labeled motif of the templates planted in a small synthetic
// yeast interactome. The planted patterns (4 to 9 vertices, sparse and
// dense) give the embedding search varied orders to walk, and labeling
// them runs the symmetry analysis that pairs occurrences.
func TestFindConformingGolden(t *testing.T) {
	var b bytes.Buffer
	pe, d := exampleDictionary(t)
	for i, lm := range d.Motifs() {
		fmt.Fprintf(&b, "paper motif %d: %s\n", i, lm.Describe(pe.Ontology))
		writeOccurrences(&b, FindConforming(pe.Network, pe.Corpus, lm, 0))
	}

	y := dataset.NewYeast(dataset.YeastConfig{
		Proteins: 300, Edges: 520, Coverage: 0.85, TermsPerBranch: 40, Seed: 11,
		Templates: []dataset.TemplateSpec{
			{Size: 4, Edges: 0, Instances: 14, PoolSize: 10},
			{Size: 5, Edges: 2, Instances: 14, PoolSize: 12},
			{Size: 7, Edges: 4, Instances: 12, PoolSize: 16},
			{Size: 9, Edges: 12, Instances: 12, PoolSize: 18},
		},
	})
	c := y.Corpora[0]
	l := NewLabeler(c, Config{Sigma: 4, MinDirect: 12, Parallelism: 1})
	for ti, pt := range y.Planted {
		m := &motif.Motif{Pattern: pt.Pattern, Occurrences: pt.Instances, Frequency: len(pt.Instances), Uniqueness: 1}
		sym := NewSymmetry(pt.Pattern)
		fmt.Fprintf(&b, "template %d: %s orbits=%v exact=%v\n", ti, pt.Pattern, sym.Orbits, sym.ExactOrbitPairing())
		for j, lm := range l.LabelMotif(m) {
			fmt.Fprintf(&b, "template %d scheme %d: %s\n", ti, j, lm.Describe(c.Ontology()))
			writeOccurrences(&b, FindConforming(y.Network, c, lm, 25))
		}
	}
	checkGolden(t, "find_conforming.golden", b.Bytes())
}

func writeOccurrences(b *bytes.Buffer, occs [][]int32) {
	fmt.Fprintf(b, "  %d occurrences\n", len(occs))
	for _, occ := range occs {
		fmt.Fprintf(b, "  %v\n", occ)
	}
}
