package dataset

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"lamofinder/internal/graph"
	"lamofinder/internal/ontology"
)

// WriteEdgeList writes the graph as a protein-name edge list compatible
// with LoadEdgeList: the round-trip oracle of the reader's tests. A name
// that starts with '#' goes second on its line, where LoadEdgeList cannot
// mistake it for a comment; a line's first name never starts with '#'.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges(nil) {
		a, b := g.Name(int(e[0])), g.Name(int(e[1]))
		if strings.HasPrefix(a, "#") {
			a, b = b, a
		}
		fmt.Fprintf(bw, "%s\t%s\n", a, b)
	}
	return bw.Flush()
}

// WriteAnnotations writes the corpus in the format read by LoadAnnotations,
// using the graph names for proteins: the round-trip oracle of the
// reader's tests.
func WriteAnnotations(w io.Writer, c *ontology.Corpus, names []string) error {
	bw := bufio.NewWriter(w)
	o := c.Ontology()
	for p := 0; p < c.NumProteins(); p++ {
		ts := append([]int32(nil), c.Terms(p)...)
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		for _, t := range ts {
			fmt.Fprintf(bw, "%s\t%s\n", names[p], o.ID(int(t)))
		}
	}
	return bw.Flush()
}
