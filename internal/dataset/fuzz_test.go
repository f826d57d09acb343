package dataset

import (
	"strings"
	"testing"
)

// FuzzLoadEdgeList checks the edge-list reader that lamod build -edges and
// motiffind -edges run, on arbitrary input: no input panics, and an
// accepted list gives each vertex one distinct name, has no self loop, and
// keeps its edge set through a WriteEdgeList round trip. The committed
// corpus (testdata/fuzz/FuzzLoadEdgeList) holds a valid list, comments and
// blank lines, a self loop with a duplicate pair, a one-column line and a
// name that starts with '#'.
func FuzzLoadEdgeList(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		g, names, err := LoadEdgeList(strings.NewReader(src))
		if err != nil {
			return
		}
		if len(names) != g.N() {
			t.Fatalf("%d names for %d vertices", len(names), g.N())
		}
		index := make(map[string]int, len(names))
		for v, name := range names {
			if _, dup := index[name]; dup {
				t.Fatalf("name %q names two vertices", name)
			}
			index[name] = v
			if g.Name(v) != name {
				t.Fatalf("vertex %d is named %q in the graph, %q in the table", v, g.Name(v), name)
			}
			if g.HasEdge(v, v) {
				t.Fatalf("self loop at %q", name)
			}
		}
		var sb strings.Builder
		if err := WriteEdgeList(&sb, g); err != nil {
			t.Fatal(err)
		}
		g2, names2, err := LoadEdgeList(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("written list rejected: %v", err)
		}
		if g2.M() != g.M() {
			t.Fatalf("round trip kept %d of %d edges", g2.M(), g.M())
		}
		index2 := make(map[string]int, len(names2))
		for v, name := range names2 {
			index2[name] = v
		}
		for _, e := range g.Edges(nil) {
			a, b := names[e[0]], names[e[1]]
			u, okU := index2[a]
			v, okV := index2[b]
			if !okU || !okV || !g2.HasEdge(u, v) {
				t.Fatalf("round trip lost edge %q-%q", a, b)
			}
		}
	})
}

// FuzzLoadAnnotations checks the annotation reader that lamod build -ann
// and gostats -ann run, on arbitrary input: no input panics, and an
// accepted file yields a corpus over every given protein whose
// annotations are known terms, sorted and distinct, with no more
// annotations plus skipped rows than the input has lines. The committed
// corpus (testdata/fuzz/FuzzLoadAnnotations) holds valid rows, an unknown
// protein and term, a short row, comment-only input and rows past '!'
// comments.
func FuzzLoadAnnotations(f *testing.F) {
	pe := NewPaperExample()
	names := make([]string, pe.Network.N())
	for i := range names {
		names[i] = pe.Network.Name(i)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, skipped, err := LoadAnnotations(strings.NewReader(src), pe.Ontology, names)
		if err != nil {
			return
		}
		if c.NumProteins() != len(names) {
			t.Fatalf("corpus over %d proteins, want %d", c.NumProteins(), len(names))
		}
		kept := 0
		for p := 0; p < c.NumProteins(); p++ {
			terms := c.Terms(p)
			for i, tm := range terms {
				if tm < 0 || int(tm) >= pe.Ontology.NumTerms() {
					t.Fatalf("protein %d annotated with term %d of %d", p, tm, pe.Ontology.NumTerms())
				}
				if i > 0 && terms[i-1] >= tm {
					t.Fatalf("protein %d terms %v not sorted and distinct", p, terms)
				}
			}
			kept += len(terms)
		}
		if lines := strings.Count(src, "\n") + 1; kept+skipped > lines {
			t.Fatalf("%d annotations + %d skipped rows from %d lines", kept, skipped, lines)
		}
	})
}
