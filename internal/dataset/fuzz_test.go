package dataset

import (
	"strings"
	"testing"
)

// FuzzLoadGAF checks the GAF reader on arbitrary input, with or without
// an aspect filter and symbol matching: no input panics, and an accepted
// file yields a corpus over the given proteins whose annotations are
// known terms, sorted and distinct, with no more annotations plus skipped
// rows than the input has lines. The committed corpus
// (testdata/fuzz/FuzzLoadGAF) holds valid rows, a NOT row, an unknown
// protein, a short row and a comment-only file.
func FuzzLoadGAF(f *testing.F) {
	pe := NewPaperExample()
	names := make([]string, pe.Network.N())
	for i := range names {
		names[i] = pe.Network.Name(i)
	}
	f.Fuzz(func(t *testing.T, src string, aspect byte, useSymbol bool) {
		c, skipped, err := LoadGAF(strings.NewReader(src), pe.Ontology, names, GAFOptions{Aspect: aspect, UseSymbol: useSymbol})
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
