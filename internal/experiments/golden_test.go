package experiments

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the WriteText goldens under testdata/")

// checkText renders r with WriteText and compares the bytes with
// testdata/name.golden, or rewrites the file under -update. WriteText
// prints no timings, so the text of a seeded run is fixed: a change that
// moves one labeled motif, pairing or score moves it.
func checkText(t *testing.T, name string, r interface{ WriteText(io.Writer) error }) {
	t.Helper()
	var got bytes.Buffer
	if err := r.WriteText(&got); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/experiments -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
