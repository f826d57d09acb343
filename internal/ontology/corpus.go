package ontology

import "sort"

// Corpus holds the direct GO annotations of a set of proteins against one
// ontology. Protein indices are dense (0..NumProteins-1) and normally
// correspond to vertex ids of the PPI graph.
type Corpus struct {
	o     *Ontology
	terms [][]int32 // protein -> sorted unique direct term indices
}

// NewCorpus returns an empty annotation corpus for n proteins.
func NewCorpus(o *Ontology, n int) *Corpus {
	return &Corpus{o: o, terms: make([][]int32, n)}
}

// Ontology returns the ontology the corpus annotates against.
func (c *Corpus) Ontology() *Ontology { return c.o }

// NumProteins returns the number of proteins in the corpus.
func (c *Corpus) NumProteins() int { return len(c.terms) }

// Annotate records that protein p is directly annotated with term t.
// Duplicate annotations are ignored.
func (c *Corpus) Annotate(p, t int) {
	s := c.terms[p]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= int32(t) })
	if i < len(s) && s[i] == int32(t) {
		return
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = int32(t)
	c.terms[p] = s
}

// Terms returns the sorted direct annotation terms of protein p. The slice
// is owned by the corpus and must not be modified.
func (c *Corpus) Terms(p int) []int32 { return c.terms[p] }

// Annotated reports whether protein p has at least one direct annotation.
func (c *Corpus) Annotated(p int) bool { return len(c.terms[p]) > 0 }

// NumAnnotated returns the number of proteins with at least one annotation.
func (c *Corpus) NumAnnotated() int {
	n := 0
	for _, ts := range c.terms {
		if len(ts) > 0 {
			n++
		}
	}
	return n
}

// DirectCounts returns, per term, the number of proteins directly annotated
// with it (annotation occurrences; each protein-term pair counts once).
func (c *Corpus) DirectCounts() []int {
	counts := make([]int, c.o.NumTerms())
	for _, ts := range c.terms {
		for _, t := range ts {
			counts[t]++
		}
	}
	return counts
}
