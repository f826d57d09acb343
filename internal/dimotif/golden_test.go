package dimotif

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lamofinder/internal/label"
	"lamofinder/internal/motif"
	"lamofinder/internal/ontology"
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
		t.Fatalf("%v (regenerate with go test ./internal/dimotif -update)", err)
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

// TestDirectedPipelineGolden pins the directed pipeline end to end: Find,
// ScoreUnique at threshold 0 (every motif counted on every network),
// Orbits and Label on the planted-FFL network, on one
// degree-preserving randomization of it (stars), and on a seeded random
// digraph dense enough for mutual arcs and directed cycles, whose
// automorphism groups are smaller than their orbits suggest. Every
// motif's pattern, frequency, uniqueness, orbits and stored occurrences
// are printed, then each labeling scheme with its occurrences. Proteins
// carry one leaf of a three-role ontology each.
func TestDirectedPipelineGolden(t *testing.T) {
	ffl := plantFFLNetwork(120, 30, rand.New(rand.NewSource(4)))
	dense := NewDiGraph(ffl.N())
	rng := rand.New(rand.NewSource(9))
	for a := 0; a < 420; a++ {
		dense.AddArc(rng.Intn(dense.N()), rng.Intn(dense.N()))
	}
	nets := []*DiGraph{ffl, ffl.Randomize(0, rand.New(rand.NewSource(8))), dense}

	b := ontology.NewBuilder()
	b.AddTerm("R:root", "")
	var leaves []string
	for _, r := range []string{"R:reg", "R:mid", "R:tgt"} {
		b.AddRelation(r, "R:root", ontology.IsA)
		for l := 0; l < 2; l++ {
			id := r + string(rune('a'+l))
			b.AddRelation(id, r, ontology.IsA)
			leaves = append(leaves, id)
		}
	}
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	corpus := ontology.NewCorpus(o, ffl.N())
	for p := 0; p < ffl.N(); p++ {
		corpus.Annotate(p, o.Index(leaves[(p*5)%len(leaves)]))
	}
	labeler := label.NewLabeler(corpus, label.Config{Sigma: 3, MinDirect: 100, Parallelism: 1})

	var out bytes.Buffer
	for i, g := range nets {
		ms := Find(g, motif.Config{MinSize: 2, MaxSize: 4, MinFreq: 4, BeamWidth: 12, MaxOccPerClass: 30, Seed: 1})
		ScoreUnique(g, ms, motif.UniquenessConfig{Networks: 4, MaxSteps: 20_000, CountCap: 200, Seed: 2}, 0)
		fmt.Fprintf(&out, "network %d: %d motifs\n", i, len(ms))
		for _, m := range ms {
			fmt.Fprintf(&out, "%s orbits=%v\n  occurrences %v\n", m, Orbits(m.Pattern), m.Occurrences)
			for _, lm := range Label(labeler, m) {
				fmt.Fprintf(&out, "  scheme %s\n    occurrences %v\n", lm.Describe(o), lm.Occurrences)
			}
		}
	}
	checkGolden(t, "pipeline.golden", out.Bytes())
}
