// Ontology analysis: parse a GO-flavored OBO document, annotate proteins,
// and explore the Section-2 machinery — weights, informative functional
// classes, border informative FC, lowest common ancestors and Lin
// similarity.
package main

import (
	"fmt"
	"strings"

	"lamofinder/internal/label"
	"lamofinder/internal/ontology"
)

// A miniature GO fragment in OBO format: metabolism with two sub-branches.
const obo = `format-version: 1.2

[Term]
id: GO:0008150
name: biological_process

[Term]
id: GO:0008152
name: metabolic process
is_a: GO:0008150

[Term]
id: GO:0006091
name: energy metabolism
is_a: GO:0008152

[Term]
id: GO:0006096
name: glycolysis
is_a: GO:0006091

[Term]
id: GO:0006099
name: TCA cycle
is_a: GO:0006091
relationship: part_of GO:0008152

[Term]
id: GO:0019538
name: protein metabolism
is_a: GO:0008152

[Term]
id: GO:0006412
name: translation
is_a: GO:0019538
`

func main() {
	o, err := ontology.ParseOBO(strings.NewReader(obo))
	if err != nil {
		panic(err)
	}
	fmt.Printf("parsed %d terms, root(s): %v\n", o.NumTerms(), o.Roots())

	// Annotate 200 imaginary proteins: 120 glycolysis, 50 TCA, 30
	// translation.
	c := ontology.NewCorpus(o, 200)
	gly := o.Index("GO:0006096")
	tca := o.Index("GO:0006099")
	tra := o.Index("GO:0006412")
	for p := 0; p < 120; p++ {
		c.Annotate(p, gly)
	}
	for p := 120; p < 170; p++ {
		c.Annotate(p, tca)
	}
	for p := 170; p < 200; p++ {
		c.Annotate(p, tra)
	}

	direct := c.DirectCounts()
	w := o.ComputeWeights(direct)
	fmt.Println("\nterm weights (Lord et al.):")
	for t := 0; t < o.NumTerms(); t++ {
		fmt.Printf("  %-12s %-20s w=%.3f\n", o.ID(t), o.Name(t), w[t])
	}

	inf := o.InformativeFC(direct, 30)
	border := o.BorderInformativeFC(direct, 30)
	fmt.Printf("\ninformative FC (>=30 direct): %s\n", ids(o, inf))
	fmt.Printf("border informative FC: %s\n", ids(o, border))

	fmt.Println("\nLin similarities:")
	idx := ontology.NewLCAIndex(o, w)
	pairs := [][2]int{{gly, tca}, {gly, tra}, {tca, tra}}
	for _, pr := range pairs {
		lca := idx.LCA(pr[0], pr[1])
		fmt.Printf("  ST(%s, %s) = %.3f via %s\n",
			o.Name(pr[0]), o.Name(pr[1]), idx.Lin(pr[0], pr[1]), o.Name(lca))
	}

	fmt.Println("\nleast general common scheme of {glycolysis} and {TCA cycle}:")
	merged := label.LeastGeneral(idx, []int32{int32(gly)}, []int32{int32(tca)}, 0)
	for _, t := range merged {
		fmt.Printf("  %s (%s)\n", o.ID(int(t)), o.Name(int(t)))
	}
}

func ids(o *ontology.Ontology, ts []int) string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = o.Name(t)
	}
	return strings.Join(out, ", ")
}
