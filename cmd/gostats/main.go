// Command gostats inspects a GO ontology plus annotations: term weights,
// informative and border informative functional classes, and term
// similarity queries — the Section-2 machinery of the paper.
//
// Usage:
//
//	gostats -obo go.obo -ann annotations.tsv -edges edges.tsv [-mindirect 30] [-top N]
//	gostats -obo go.obo -ann annotations.tsv -edges edges.tsv -sim A,B
//
// It counts the annotations of the proteins the edge list names, as
// lamod build -edges does, so both find the same border informative FC in
// the same files.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"lamofinder/internal/dataset"
	"lamofinder/internal/ontology"
)

func main() {
	obo := flag.String("obo", "", "GO ontology in OBO format")
	ann := flag.String("ann", "", "protein annotations (protein<TAB>term)")
	edges := flag.String("edges", "", "interaction edge list (two protein names per line)")
	minDirect := flag.Int("mindirect", 30, "informative-FC direct annotation threshold")
	sim := flag.String("sim", "", "term pair \"A,B\" to score with Lin similarity")
	top := flag.Int("top", 25, "terms to print")
	flag.Parse()

	if *obo == "" || *ann == "" || *edges == "" {
		fatalf("need -obo, -ann and -edges")
	}
	f, err := os.Open(*obo)
	check(err)
	defer func() { _ = f.Close() }() // read-only open; close error is unactionable
	o, err := ontology.ParseOBO(f)
	check(err)
	ef, err := os.Open(*edges)
	check(err)
	defer func() { _ = ef.Close() }() // read-only open; close error is unactionable
	_, names, err := dataset.LoadEdgeList(ef)
	check(err)
	af, err := os.Open(*ann)
	check(err)
	defer func() { _ = af.Close() }() // read-only open; close error is unactionable
	corpus, skipped, err := dataset.LoadAnnotations(af, o, names)
	check(err)
	fmt.Printf("%d annotations skipped\n", skipped)
	direct := corpus.DirectCounts()

	w := o.ComputeWeights(direct)
	incl := o.InclusiveCounts(direct)

	if *sim != "" {
		a, b, ok := strings.Cut(*sim, ",")
		if !ok {
			fatalf("-sim wants \"A,B\"")
		}
		ta, tb := o.Index(strings.TrimSpace(a)), o.Index(strings.TrimSpace(b))
		if ta < 0 || tb < 0 {
			fatalf("unknown term in %q", *sim)
		}
		idx := ontology.NewLCAIndex(o, w)
		lca := idx.LCA(ta, tb)
		fmt.Printf("ST(%s,%s) = %.4f (lowest common parent %s, w=%.3f)\n",
			a, b, idx.Lin(ta, tb), o.ID(lca), w[lca])
		return
	}

	fmt.Printf("ontology: %d terms, %d roots\n", o.NumTerms(), len(o.Roots()))
	inf := o.InformativeFC(direct, *minDirect)
	border := o.BorderInformativeFC(direct, *minDirect)
	fmt.Printf("informative FC (>=%d direct): %d; border informative FC: %d\n",
		*minDirect, len(inf), len(border))
	fmt.Printf("border informative FC: %s\n", idList(o, border))

	type row struct {
		t int
		w float64
	}
	rows := make([]row, 0, o.NumTerms())
	for t := 0; t < o.NumTerms(); t++ {
		rows = append(rows, row{t, w[t]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].w > rows[j].w })
	fmt.Printf("%-14s %8s %10s %8s\n", "term", "direct", "inclusive", "weight")
	for i, r := range rows {
		if i >= *top {
			fmt.Println("...")
			break
		}
		fmt.Printf("%-14s %8d %10d %8.3f\n", o.ID(r.t), direct[r.t], incl[r.t], r.w)
	}
}

func idList(o *ontology.Ontology, ts []int) string {
	ids := make([]string, len(ts))
	for i, t := range ts {
		ids[i] = o.ID(t)
	}
	return strings.Join(ids, ", ")
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gostats: "+format+"\n", args...)
	os.Exit(1)
}
