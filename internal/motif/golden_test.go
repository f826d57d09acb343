package motif

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lamofinder/internal/randnet"
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
		t.Fatalf("%v (regenerate with go test ./internal/motif -update)", err)
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

// TestSampleConcentrationsGolden pins RAND-ESU's sample, not just its
// statistics: the pattern and count of every sampled class at k = 3, 4
// and 5 on a fixed 150-vertex graph (three root chunks) and seed. A change
// to where the pruned walk draws from a chunk's RNG moves it.
func TestSampleConcentrationsGolden(t *testing.T) {
	g := randnet.BarabasiAlbert(150, 3, 2, rand.New(rand.NewSource(14)))
	var b bytes.Buffer
	for k := 3; k <= 5; k++ {
		cs := SampleConcentrations(g, RandESUConfig{K: k, SampleFraction: 0.3, Seed: 5})
		fmt.Fprintf(&b, "k=%d classes=%d\n", k, len(cs))
		for _, c := range cs {
			fmt.Fprintf(&b, "  %s count=%d\n", c.Pattern, c.Count)
		}
	}
	checkGolden(t, "randesu_sample.golden", b.Bytes())
}

// TestNeMoFindGolden pins NeMoFind's output on a fixed Barabási–Albert
// graph: the pattern and frequency of every reported class, in order. The
// tree-class cap and the occurrence reservoir are both tight, so a walk
// that followed map order instead of each level's kept order would keep
// different occurrences and move the classes and counts.
func TestNeMoFindGolden(t *testing.T) {
	g := randnet.BarabasiAlbert(300, 3, 2, rand.New(rand.NewSource(14)))
	ms := NeMoFind(g, NeMoConfig{MinSize: 3, MaxSize: 6, MinFreq: 10, MaxTreeClasses: 12, MaxOccPerTree: 60, Seed: 3})
	var b bytes.Buffer
	fmt.Fprintf(&b, "classes=%d\n", len(ms))
	for _, m := range ms {
		fmt.Fprintf(&b, "  %s freq=%d\n", m.Pattern, m.Frequency)
	}
	checkGolden(t, "nemofind.golden", b.Bytes())
}
