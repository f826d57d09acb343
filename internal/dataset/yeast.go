package dataset

import (
	"fmt"
	"math/rand"

	"lamofinder/internal/graph"
	"lamofinder/internal/ontology"
	"lamofinder/internal/randnet"
)

// YeastConfig sizes the synthetic BIND-like interactome. The defaults match
// the paper's Section 4 statistics: 4141 proteins, 7095 interactions, 86%
// GO coverage, three annotation branches.
type YeastConfig struct {
	Proteins int
	Edges    int
	// Coverage is the fraction of proteins with at least one GO annotation
	// (paper: 3554/4141).
	Coverage float64
	// TermsPerBranch sizes each synthetic GO branch.
	TermsPerBranch int
	// Templates describes the motif structures planted into the network;
	// nil selects DefaultYeastTemplates (a meso-scale-heavy mix).
	Templates []TemplateSpec
	Seed      int64
}

// TemplateSpec plants one repeated subgraph: a random connected pattern of
// the given size instantiated Instances times over a pool of PoolSize
// proteins (smaller pools create overlapping, complex-like occurrences).
// Every instance's position i proteins share GO annotations drawn from the
// same handful of terms, making the planted motif labelable.
type TemplateSpec struct {
	Size      int
	Edges     int // extra edges beyond the spanning tree
	Instances int
	PoolSize  int
}

// DefaultYeastConfig mirrors the paper's network scale.
func DefaultYeastConfig() YeastConfig {
	return YeastConfig{
		Proteins:       4141,
		Edges:          7095,
		Coverage:       0.858,
		TermsPerBranch: 400,
		Seed:           42,
	}
}

// DefaultYeastTemplates returns a planted-motif mix whose size distribution
// is meso-scale heavy, echoing the paper's Figure 6 (peak at sizes 15-17).
// Meso-scale templates are dense (complex-like): protein complexes are the
// biological source of meso-scale motifs, and their density is what makes
// them absent from degree-preserving randomizations.
func DefaultYeastTemplates() []TemplateSpec {
	var specs []TemplateSpec
	plan := []struct{ size, count int }{
		{4, 1}, {5, 1}, {6, 1}, {8, 1}, {10, 1}, {12, 2},
		{14, 2}, {15, 3}, {16, 4}, {17, 3}, {18, 2}, {20, 1},
	}
	for _, p := range plan {
		for c := 0; c < p.count; c++ {
			specs = append(specs, TemplateSpec{
				Size:      p.size,
				Edges:     p.size, // tree + size extra chords: complex-like density
				Instances: 35,
				PoolSize:  p.size * 3,
			})
		}
	}
	return specs
}

// Branch names the three GO annotation branches the paper labels with.
type Branch int

// The three GO domains.
const (
	Process Branch = iota
	Function
	Component
	numBranches
)

// String returns the branch's GO domain name.
func (b Branch) String() string {
	switch b {
	case Process:
		return "biological_process"
	case Function:
		return "molecular_function"
	default:
		return "cellular_component"
	}
}

// Yeast is a synthetic whole-genome interactome with planted, GO-annotated
// motif structure, substituting for the paper's BIND Y2H download.
type Yeast struct {
	Network    *graph.Graph
	Ontologies [3]*ontology.Ontology
	Corpora    [3]*ontology.Corpus
	// Planted records the ground-truth templates (pattern plus instances).
	Planted []PlantedTemplate
}

// PlantedTemplate is the ground truth for one TemplateSpec.
type PlantedTemplate struct {
	Pattern   *graph.Dense
	Instances [][]int32 // instance -> vertex per pattern position
}

// NewYeast builds the synthetic interactome: a duplication-divergence
// backbone, planted template instances, and three GO branches whose
// annotations are position-coherent on the planted instances and random
// elsewhere.
func NewYeast(cfg YeastConfig) *Yeast {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Templates == nil {
		cfg.Templates = DefaultYeastTemplates()
	}
	y := &Yeast{}

	// GO branches.
	for b := Branch(0); b < numBranches; b++ {
		oc := ontology.DefaultSyntheticConfig(branchPrefix(b), cfg.TermsPerBranch)
		y.Ontologies[b] = ontology.Synthetic(oc, rng)
	}

	// Backbone network at ~60% of the edge budget: trim a random subset of
	// duplication-divergence edges in one pass.
	g := randnet.DuplicationDivergence(cfg.Proteins, 0.35, 0.35, rng)
	if excess := g.M() - cfg.Edges*6/10; excess > 0 {
		es := g.Edges(nil)
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		for i := 0; i < excess; i++ {
			g.RemoveEdge(int(es[i][0]), int(es[i][1]))
		}
	}

	// Plant templates.
	for _, spec := range cfg.Templates {
		pt := plantTemplate(g, spec, rng)
		y.Planted = append(y.Planted, pt)
	}
	// Top up to the edge budget with random edges.
	for g.M() < cfg.Edges {
		g.AddEdge(rng.Intn(cfg.Proteins), rng.Intn(cfg.Proteins))
	}
	y.Network = g
	for p := 0; p < cfg.Proteins; p++ {
		g.SetName(p, fmt.Sprintf("Y%04d", p))
	}

	// Annotations: position-coherent terms on planted instances.
	for b := Branch(0); b < numBranches; b++ {
		o := y.Ontologies[b]
		c := ontology.NewCorpus(o, cfg.Proteins)
		leaves := o.Leaves()
		for _, pt := range y.Planted {
			// Each pattern position gets a small bag of leaf terms shared
			// by all instances.
			nv := pt.Pattern.N()
			bags := make([][]int, nv)
			for v := 0; v < nv; v++ {
				bag := make([]int, 2)
				for i := range bag {
					bag[i] = leaves[rng.Intn(len(leaves))]
				}
				bags[v] = bag
			}
			for _, inst := range pt.Instances {
				for v, p := range inst {
					if rng.Float64() < 0.1 {
						continue // annotation noise: missing label
					}
					c.Annotate(int(p), bags[v][rng.Intn(len(bags[v]))])
				}
			}
		}
		// Background annotations to reach target coverage. A share goes to
		// internal (mid-level) terms so the informative-FC frontier settles
		// above the specific leaf terms, as it does in real GO; otherwise
		// heavily used leaves become border informative FC themselves and
		// LaMoFinder's schemes freeze before any generalization.
		internal := make([]int, 0, o.NumTerms())
		for t := 1; t < o.NumTerms(); t++ {
			if len(o.Children(t)) > 0 {
				internal = append(internal, t)
			}
		}
		for p := 0; p < cfg.Proteins; p++ {
			if c.Annotated(p) {
				continue
			}
			if rng.Float64() < cfg.Coverage {
				k := 1 + rng.Intn(3)
				for i := 0; i < k; i++ {
					if len(internal) > 0 && rng.Float64() < 0.35 {
						c.Annotate(p, internal[rng.Intn(len(internal))])
					} else {
						c.Annotate(p, leaves[rng.Intn(len(leaves))])
					}
				}
			}
		}
		y.Corpora[b] = c
	}
	return y
}

func branchPrefix(b Branch) string {
	switch b {
	case Process:
		return "BP"
	case Function:
		return "MF"
	default:
		return "CC"
	}
}

// plantTemplate creates a random connected pattern and wires Instances
// embeddings of it into g over a bounded protein pool: position v draws
// from its own sub-pool of the pool.
func plantTemplate(g *graph.Graph, spec TemplateSpec, rng *rand.Rand) PlantedTemplate {
	n := spec.Size
	pat := randomTemplate(n, spec.Edges, rng)
	poolSize := max(spec.PoolSize, n)
	pool := rng.Perm(g.N())[:poolSize]
	perPos := poolSize / n
	return plantInstances(g, pat, spec.Instances, perPos, func(v, r int) int { return pool[(v*perPos+r)%poolSize] }, rng)
}
