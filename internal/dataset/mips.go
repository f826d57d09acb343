package dataset

import (
	"fmt"
	"math/rand"

	"lamofinder/internal/graph"
	"lamofinder/internal/ontology"
	"lamofinder/internal/predict"
)

// MIPSConfig sizes the synthetic MIPS-like function-prediction benchmark.
// Defaults match the paper's Figure-9 dataset: 1877 proteins, 2448 physical
// interactions, top 13 functional categories.
type MIPSConfig struct {
	Proteins   int
	Edges      int
	Categories int
	// AnnotatedFrac is the fraction of proteins with known categories.
	AnnotatedFrac float64
	// Homophily is the probability a background edge connects two proteins
	// of the same primary category — the signal that neighbor-based
	// baselines (NC, Chi2, MRF) exploit.
	Homophily float64
	// MotifCoverage is the fraction of proteins placed into planted motif
	// instances, whose positions carry fixed categories — the remote
	// topological signal only the labeled-motif method exploits.
	MotifCoverage float64
	// PositionNoise is the chance a planted protein's category deviates
	// from its position's category.
	PositionNoise float64
	// LeavesPerCategory controls the GO subtree width under each category.
	LeavesPerCategory int
	Seed              int64
}

// DefaultMIPSConfig mirrors the paper's evaluation scale.
func DefaultMIPSConfig() MIPSConfig {
	return MIPSConfig{
		Proteins:          1877,
		Edges:             2448,
		Categories:        13,
		AnnotatedFrac:     0.9,
		Homophily:         0.55,
		MotifCoverage:     0.5,
		PositionNoise:     0.12,
		LeavesPerCategory: 4,
		Seed:              99,
	}
}

// MIPS is the synthetic benchmark: a task for the predictors plus the GO
// corpus LaMoFinder labels against, and the planted ground truth.
type MIPS struct {
	Task *predict.Task
	// Ontology has one root, Categories subtree roots, and
	// LeavesPerCategory leaves under each.
	Ontology *ontology.Ontology
	Corpus   *ontology.Corpus
	// CategoryTerm[c] is the subtree-root term index of category c.
	CategoryTerm []int
	Planted      []PlantedTemplate
}

// randomTemplate returns a random connected pattern of the given size: a
// random spanning tree plus extra chord draws (a draw of one vertex twice
// adds nothing). Distinct planting rounds get distinct topologies with
// high probability, so their occurrence lists do not pool into one
// isomorphism class.
func randomTemplate(size, extra int, rng *rand.Rand) *graph.Dense {
	d := graph.NewDense(size)
	for v := 1; v < size; v++ {
		d.AddEdge(v, rng.Intn(v))
	}
	for e := 0; e < extra; e++ {
		a, b := rng.Intn(size), rng.Intn(size)
		if a != b {
			d.AddEdge(a, b)
		}
	}
	return d
}

// plantInstances wires up to count embeddings of pat into g. Position v of
// an instance takes protein pick(v, r) for a draw r in [0, perPos), so
// positions repeat across instances (position-coherent, like subunits of
// a complex); after eight draws that all clash with the instance's earlier
// positions, the instance is dropped.
func plantInstances(g *graph.Graph, pat *graph.Dense, count, perPos int, pick func(v, r int) int, rng *rand.Rand) PlantedTemplate {
	n := pat.N()
	pt := PlantedTemplate{Pattern: pat}
	for inst := 0; inst < count; inst++ {
		vs := make([]int32, n)
		used := map[int]bool{}
		ok := true
		for v := 0; v < n && ok; v++ {
			ok = false
			for try := 0; try < 8; try++ {
				if cand := pick(v, rng.Intn(perPos)); !used[cand] {
					used[cand] = true
					vs[v] = int32(cand)
					ok = true
					break
				}
			}
		}
		if !ok {
			continue
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if pat.HasEdge(i, j) {
					g.AddEdge(int(vs[i]), int(vs[j]))
				}
			}
		}
		pt.Instances = append(pt.Instances, vs)
	}
	return pt
}

// NewMIPS builds the benchmark. Planted motif instances receive
// position-fixed categories; background proteins receive homophilous edges,
// so neighbor methods work but position methods work better on the planted
// half — the structural claim of the paper's Section 5.
//
// invariant: the generated category ontology is a two-level tree, so Build
// cannot cycle; a failure would be a bug in this generator.
func NewMIPS(cfg MIPSConfig) *MIPS {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Proteins
	g := graph.New(n)
	task := predict.NewTask(g, cfg.Categories)

	// Primary categories, skewed like functional catalogues.
	primary := make([]int, n)
	for p := range primary {
		// Zipf-ish skew over categories.
		c := int(float64(cfg.Categories) * rng.Float64() * rng.Float64())
		if c >= cfg.Categories {
			c = cfg.Categories - 1
		}
		primary[p] = c
	}

	// Plant motif instances over a dedicated protein range.
	budget := int(float64(n) * cfg.MotifCoverage)
	var planted []PlantedTemplate
	nextProtein := 0
	for nextProtein < budget {
		nv := 4 + rng.Intn(4) // sizes 4..7
		tpl := randomTemplate(nv, nv/2+1, rng)
		// Fixed per-position categories drawn from a two-category pool:
		// positions are deterministic (the labeled-motif signal) while
		// within-template edges still often connect same-category proteins
		// (so neighbor-based baselines keep partial signal, as in real
		// interactomes).
		pool2 := rng.Perm(cfg.Categories)[:2]
		cats := make([]int, nv)
		for v := range cats {
			cats[v] = pool2[rng.Intn(2)]
		}
		cats[0], cats[nv-1] = pool2[0], pool2[1] // both categories present
		// Position sub-pools so positions repeat across instances.
		perPos := 12
		poolBase := nextProtein
		need := nv * perPos
		if poolBase+need > budget {
			break
		}
		nextProtein += need
		// Heavy position reuse: three instances per sub-pool slot.
		pt := plantInstances(g, tpl, perPos*3, perPos, func(v, r int) int { return poolBase + v*perPos + r }, rng)
		planted = append(planted, pt)
		// Assign position categories to the pool proteins.
		for v := 0; v < nv; v++ {
			for k := 0; k < perPos; k++ {
				p := poolBase + v*perPos + k
				if rng.Float64() < cfg.PositionNoise {
					primary[p] = rng.Intn(cfg.Categories)
				} else {
					primary[p] = cats[v]
				}
			}
		}
	}

	// Background edges with category homophily.
	for g.M() < cfg.Edges {
		u := rng.Intn(n)
		var v int
		if rng.Float64() < cfg.Homophily {
			// Find a same-category partner.
			v = rng.Intn(n)
			for try := 0; try < 20 && (v == u || primary[v] != primary[u]); try++ {
				v = rng.Intn(n)
			}
		} else {
			v = rng.Intn(n)
		}
		g.AddEdge(u, v)
	}

	// Task annotations: primary category, plus a secondary with prob 0.3.
	for p := 0; p < n; p++ {
		if rng.Float64() >= cfg.AnnotatedFrac {
			continue
		}
		task.Functions[p] = append(task.Functions[p], primary[p])
		if rng.Float64() < 0.3 {
			s := rng.Intn(cfg.Categories)
			if s != primary[p] {
				task.Functions[p] = append(task.Functions[p], s)
			}
		}
	}

	// GO ontology: root -> category terms -> leaves.
	b := ontology.NewBuilder()
	b.AddTerm("FC:root", "functional catalogue")
	catTerm := make([]int, cfg.Categories)
	leafOf := make([][]string, cfg.Categories)
	for c := 0; c < cfg.Categories; c++ {
		cid := fmt.Sprintf("FC:%02d", c)
		b.AddTerm(cid, fmt.Sprintf("category %d", c))
		b.AddRelation(cid, "FC:root", ontology.IsA)
		for l := 0; l < cfg.LeavesPerCategory; l++ {
			lid := fmt.Sprintf("FC:%02d.%d", c, l)
			b.AddTerm(lid, fmt.Sprintf("category %d leaf %d", c, l))
			b.AddRelation(lid, cid, ontology.IsA)
			leafOf[c] = append(leafOf[c], lid)
		}
	}
	o, err := b.Build()
	if err != nil {
		panic(err) // static construction; cannot cycle
	}
	for c := 0; c < cfg.Categories; c++ {
		catTerm[c] = o.Index(fmt.Sprintf("FC:%02d", c))
	}
	// Annotate mostly at specific leaves, partly at the category terms
	// directly. The category-level annotations push the informative-FC
	// frontier (>= 30 direct) to the category level, leaving the leaves
	// below the border as in real GO; LaMoFinder's schemes then have room
	// to generalize leaf -> category before the stopping rule fires.
	corpus := ontology.NewCorpus(o, n)
	for p := 0; p < n; p++ {
		for _, f := range task.Functions[p] {
			if rng.Float64() < 0.3 {
				corpus.Annotate(p, catTerm[f])
				continue
			}
			leaf := leafOf[f][rng.Intn(len(leafOf[f]))]
			corpus.Annotate(p, o.Index(leaf))
		}
	}

	for p := 0; p < n; p++ {
		g.SetName(p, fmt.Sprintf("M%04d", p))
	}
	return &MIPS{
		Task:         task,
		Ontology:     o,
		Corpus:       corpus,
		CategoryTerm: catTerm,
		Planted:      planted,
	}
}

// CategoryNames returns the display name of each functional category (the
// GO id of its subtree-root term), in category order — the FunctionNames
// an artifact built over the benchmark task wants.
func (m *MIPS) CategoryNames() []string {
	names := make([]string, len(m.CategoryTerm))
	for c, ct := range m.CategoryTerm {
		names[c] = m.Ontology.ID(ct)
	}
	return names
}
