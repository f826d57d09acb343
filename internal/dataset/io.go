package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"lamofinder/internal/graph"
	"lamofinder/internal/ontology"
)

// LoadEdgeList reads a whitespace-separated protein interaction list (one
// "A B" pair per line; lines starting with '#' are comments). Self
// interactions and duplicate pairs are dropped, mirroring the paper's
// preprocessing of the BIND and MIPS downloads. It returns the graph and
// the protein name table (index = vertex id).
func LoadEdgeList(r io.Reader) (*graph.Graph, []string, error) {
	g := graph.New(0)
	index := map[string]int{}
	var names []string
	vertex := func(name string) int {
		if v, ok := index[name]; ok {
			return v
		}
		v := g.AddVertex()
		index[name] = v
		names = append(names, name)
		g.SetName(v, name)
		return v
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("edge list line %d: want two columns, got %q", lineNo, line)
		}
		a, b := vertex(fields[0]), vertex(fields[1])
		if a != b {
			g.AddEdge(a, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("edge list: %w", err)
	}
	return g, names, nil
}

// LoadAnnotations reads a two-column "protein<TAB>term" annotation file
// (GAF-flavored minimal form) into a corpus over the given ontology and
// protein name table. Unknown proteins and terms are skipped and counted.
func LoadAnnotations(r io.Reader, o *ontology.Ontology, names []string) (*ontology.Corpus, int, error) {
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	c := ontology.NewCorpus(o, len(names))
	skipped := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "!") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, skipped, fmt.Errorf("annotations line %d: want two columns, got %q", lineNo, line)
		}
		p, okP := index[fields[0]]
		t := o.Index(fields[1])
		if !okP || t < 0 {
			skipped++
			continue
		}
		c.Annotate(p, t)
	}
	if err := sc.Err(); err != nil {
		return nil, skipped, fmt.Errorf("annotations: %w", err)
	}
	return c, skipped, nil
}
