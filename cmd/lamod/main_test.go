package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runStderr runs lamod with args and returns its exit code and what it
// wrote to stderr.
func runStderr(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	prev := os.Stderr
	os.Stderr = f
	code := run(args)
	os.Stderr = prev
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(b)
}

// TestBuildFileFlagsGoTogether: a build from files needs the edge list,
// the ontology and the annotations, so any one of them alone exits 2
// before anything is read, and no artifact is written.
func TestBuildFileFlagsGoTogether(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.lamoart")
	for _, args := range [][]string{
		{"-edges", "edges.tsv"},
		{"-edges", "edges.tsv", "-obo", "go.obo"},
		{"-obo", "go.obo", "-ann", "annotations.tsv"},
	} {
		code, stderr := runStderr(t, append([]string{"build", "-out", out}, args...)...)
		if code != 2 || !strings.Contains(stderr, "-edges, -obo and -ann go together") {
			t.Errorf("build %v: exit %d, stderr %q; want 2 and the flags named", args, code, stderr)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("artifact written: stat err = %v", err)
	}
}

// TestBuildRejectsInputWithoutCategories: the function categories of a
// file build are the border informative FC at the preset's MinDirect (30
// at the paper preset). No term here has 30 direct annotations, so build
// exits 2 naming the threshold, before it mines, and writes no artifact.
func TestBuildRejectsInputWithoutCategories(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	edges := write("edges.tsv", "a\tb\nb\tc\nc\ta\nc\td\n")
	obo := write("go.obo", "[Term]\nid: GO:1\nname: root\n\n[Term]\nid: GO:2\nname: leaf\nis_a: GO:1\n")
	ann := write("annotations.tsv", "a\tGO:2\nb\tGO:2\nc\tGO:1\nd\tGO:2\n")
	out := filepath.Join(dir, "m.lamoart")
	code, stderr := runStderr(t, "build", "-out", out, "-edges", edges, "-obo", obo, "-ann", ann)
	if code != 2 || !strings.Contains(stderr, "no GO term has 30 or more direct annotations") {
		t.Fatalf("exit %d, stderr %q; want 2 and the threshold 30 named", code, stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("artifact written: stat err = %v", err)
	}
}
