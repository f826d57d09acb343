package ontology

import (
	"strings"
	"testing"
)

// FuzzParseOBO checks the OBO reader on arbitrary input: no input panics,
// and an accepted ontology is consistent. Every term's ID indexes back to
// that term (an alt_id never shadows a primary ID), and no term is its own
// ancestor, so an is_a or part_of cycle cannot slip past Build. The
// committed corpus (testdata/fuzz/FuzzParseOBO) holds valid stanzas with
// both relations and an alt_id, an is_a cycle, a self relation, an
// obsolete term, a Typedef stanza and a line without a colon.
func FuzzParseOBO(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		o, err := ParseOBO(strings.NewReader(src))
		if err != nil {
			return
		}
		for tm := 0; tm < o.NumTerms(); tm++ {
			if got := o.Index(o.ID(tm)); got != tm {
				t.Fatalf("Index(ID(%d) = %q) = %d", tm, o.ID(tm), got)
			}
			for _, a := range o.Ancestors(tm) {
				if a == tm {
					t.Fatalf("term %q lists itself among its ancestors", o.ID(tm))
				}
			}
			for _, p := range o.Parents(tm) {
				if o.IsAncestorOrSelf(tm, p) {
					t.Fatalf("term %q is an ancestor of its own parent %q", o.ID(tm), o.ID(p))
				}
			}
		}
	})
}
