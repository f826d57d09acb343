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

var update = flag.Bool("update", false, "rewrite the example goldens under testdata/examples/")

// examples names the programs under examples/; setup builds each one
// beside lamod, under its directory's name.
var examples = []string{"directedmotifs", "functionprediction", "motiflabeling", "ontology", "quickstart"}

// TestExamples runs each example and compares its stdout with
// testdata/examples/<name>.golden, or rewrites the file under -update.
// Every example seeds its own data, so what it prints is fixed: a change
// that moves one mined class, label or score moves it.
func TestExamples(t *testing.T) {
	for _, name := range examples {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := run(t, filepath.Join(filepath.Dir(lamod), name))
			path := filepath.Join("testdata", "examples", name+".golden")
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
				t.Fatalf("%v (regenerate with go test -tags e2e -run TestExamples ./e2e/ -update)", err)
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
		})
	}
}
