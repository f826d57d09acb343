//go:build e2e

package e2e

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/examples/ and testdata/files/")

// mips is the file fixture: the quick preset's MIPS network (edges.tsv),
// its GO terms (go.obo) and their annotations (annotations.tsv), written
// once from the generator.
const mips = "testdata/mips/"

// goldens lists the programs TestExamples pins, each under the name of its
// golden: every program under examples/, which setup builds beside lamod
// under its directory's name and which runs with no flags, then motiffind
// and gostats over the fixture.
var goldens = []struct {
	name, prog string
	args       []string
}{
	{"directedmotifs", "directedmotifs", nil},
	{"functionprediction", "functionprediction", nil},
	{"motiflabeling", "motiflabeling", nil},
	{"ontology", "ontology", nil},
	{"quickstart", "quickstart", nil},
	{"motiffind_beam", "motiffind", []string{"-edges", mips + "edges.tsv", "-maxsize", "5", "-minfreq", "10", "-z"}},
	{"motiffind_esu", "motiffind", []string{"-edges", mips + "edges.tsv", "-esu", "4", "-z", "-uniq", "0"}},
	{"gostats", "gostats", []string{"-obo", mips + "go.obo", "-ann", mips + "annotations.tsv", "-edges", mips + "edges.tsv",
		"-mindirect", "10"}},
	{"gostats_sim", "gostats", []string{"-obo", mips + "go.obo", "-ann", mips + "annotations.tsv", "-edges", mips + "edges.tsv",
		"-sim", "FC:00.1,FC:00.2"}},
}

// TestExamples runs each program of goldens and compares its stdout with
// testdata/examples/<name>.golden, or rewrites the file under -update.
// Every program seeds its own data or reads the fixture, so what it
// prints is fixed: a change that moves one mined class, label or score
// moves it.
func TestExamples(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			got := run(t, filepath.Join(filepath.Dir(lamod), g.prog), g.args...)
			checkGolden(t, filepath.Join("testdata", "examples", g.name+".golden"), got)
		})
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -tags e2e -run %s ./e2e/ -update)", err, t.Name())
	}
	if !bytes.Equal([]byte(got), want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
