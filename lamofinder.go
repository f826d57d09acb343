// Package lamofinder reproduces "Labeling network motifs in protein
// interactomes for protein function prediction" (Chen, Hsu, Lee, Ng;
// ICDE 2007): LaMoFinder labels the vertices of network motifs with Gene
// Ontology terms so that the labeled subgraphs still occur frequently in
// the annotated PPI network, and the labeled motifs drive protein function
// prediction.
//
// The facade re-exports the user-facing types from the internal packages so
// the common path needs one import:
//
//	net, names, _ := lamofinder.LoadEdgeList(f)          // or a synthetic interactome
//	motifs := lamofinder.FindMotifs(net, lamofinder.DefaultMineConfig())
//	lamofinder.ScoreUniqueness(net, motifs, lamofinder.DefaultNullModel())
//	unique := lamofinder.FilterUnique(motifs, 0.95)
//	labeler := lamofinder.NewLabeler(corpus, lamofinder.DefaultLabelConfig())
//	labeled := labeler.LabelAll(unique)
//
// The pipeline's heavy stages — occurrence-similarity scoring, the null
// model, and subgraph enumeration — run on a worker pool sized by the
// Parallelism field of LabelConfig and NullModel (0 = GOMAXPROCS). Results
// are byte-identical at every worker count: work is chunked independently
// of the pool size, randomized stages derive one RNG stream per chunk, and
// merges are index-ordered.
//
// See the examples directory for runnable end-to-end programs and the
// internal/experiments package for the paper's tables and figures.
package lamofinder

import (
	"io"

	"lamofinder/internal/dataset"
	"lamofinder/internal/dimotif"
	"lamofinder/internal/eval"
	"lamofinder/internal/graph"
	"lamofinder/internal/label"
	"lamofinder/internal/motif"
	"lamofinder/internal/ontology"
	"lamofinder/internal/predict"
)

// Core graph types.
type (
	// Graph is a sparse undirected PPI network.
	Graph = graph.Graph
	// Pattern is a dense small graph used for motif topologies.
	Pattern = graph.Dense
)

// NewGraph returns a network with n proteins and no interactions.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewPattern returns an empty motif pattern over n vertices.
func NewPattern(n int) *Pattern { return graph.NewDense(n) }

// Ontology types.
type (
	// Ontology is an immutable GO-style DAG.
	Ontology = ontology.Ontology
	// OntologyBuilder accumulates terms and relations.
	OntologyBuilder = ontology.Builder
	// Corpus holds direct protein annotations.
	Corpus = ontology.Corpus
	// Weights are genome-specific term weights (Lord et al.).
	Weights = ontology.Weights
	// RelType distinguishes is-a from part-of edges.
	RelType = ontology.RelType
)

// GO relation kinds.
const (
	IsA    = ontology.IsA
	PartOf = ontology.PartOf
)

// NewOntologyBuilder returns an empty GO builder.
func NewOntologyBuilder() *OntologyBuilder { return ontology.NewBuilder() }

// ParseOBO reads a minimal OBO file.
func ParseOBO(r io.Reader) (*Ontology, error) { return ontology.ParseOBO(r) }

// NewCorpus returns an empty annotation corpus for n proteins.
func NewCorpus(o *Ontology, n int) *Corpus { return ontology.NewCorpus(o, n) }

// Motif mining.
type (
	// Motif is a mined pattern with its occurrence list.
	Motif = motif.Motif
	// MineConfig controls the meso-scale miner.
	MineConfig = motif.Config
	// NullModel controls the randomized-network uniqueness test; its
	// Parallelism field caps the per-network workers (0 = GOMAXPROCS)
	// without changing any score.
	NullModel = motif.UniquenessConfig
)

// DefaultMineConfig mirrors the paper's mining setup.
func DefaultMineConfig() MineConfig { return motif.DefaultConfig() }

// DefaultNullModel returns a screening-strength uniqueness test.
func DefaultNullModel() NullModel { return motif.DefaultUniquenessConfig() }

// FindMotifs mines frequent connected patterns with occurrence lists.
func FindMotifs(g *Graph, cfg MineConfig) []*Motif { return motif.Find(g, cfg) }

// ScoreUniqueness fills in motif uniqueness against degree-preserving
// randomizations.
func ScoreUniqueness(g *Graph, ms []*Motif, cfg NullModel) { motif.ScoreUniqueness(g, ms, cfg) }

// FilterUnique keeps motifs with uniqueness >= minUniq.
func FilterUnique(ms []*Motif, minUniq float64) []*Motif { return motif.FilterUnique(ms, minUniq) }

// ZScore is the Milo-style over-representation statistic (extension to the
// paper's uniqueness fraction).
type ZScore = motif.ZScore

// ScoreZ computes z-scores for motifs against randomized networks.
func ScoreZ(g *Graph, ms []*Motif, cfg NullModel) []ZScore { return motif.ScoreZ(g, ms, cfg) }

// LaMoFinder labeling.
type (
	// Labeler runs LaMoFinder over one annotated ontology branch.
	Labeler = label.Labeler
	// LabelConfig controls LaMoFinder; its Parallelism field caps the
	// similarity/labeling workers (0 = GOMAXPROCS) without changing any
	// output.
	LabelConfig = label.Config
	// LabeledMotif is a motif whose vertices carry GO label sets.
	LabeledMotif = label.LabeledMotif
)

// DefaultLabelConfig mirrors the paper's sigma=10 / informative-FC=30 setup.
func DefaultLabelConfig() LabelConfig { return label.DefaultConfig() }

// NewLabeler prepares LaMoFinder against a corpus.
func NewLabeler(c *Corpus, cfg LabelConfig) *Labeler { return label.NewLabeler(c, cfg) }

// NewLabelerWithCounts is NewLabeler with externally supplied direct
// annotation counts (e.g. a whole-genome census).
func NewLabelerWithCounts(c *Corpus, direct []int, cfg LabelConfig) *Labeler {
	return label.NewLabelerWithCounts(c, direct, cfg)
}

// Similarity machinery (Eqs. 1-3).
type (
	// Sim computes memoized Lin / vertex / occurrence similarities.
	Sim = label.Sim
	// Symmetry captures a pattern's symmetric-vertex structure.
	Symmetry = label.Symmetry
)

// NewSim returns a similarity calculator over an ontology and weights.
func NewSim(o *Ontology, w Weights) *Sim { return label.NewSim(o, w) }

// NewSymmetry analyzes a motif pattern's automorphism structure.
func NewSymmetry(p *Pattern) *Symmetry { return label.NewSymmetry(p) }

// LeastGeneral merges two label sets into their least general common scheme
// (the paper's "minimum common father" labels, Table 4).
func LeastGeneral(o *Ontology, w Weights, a, b []int32, maxTerms int) []int32 {
	return label.LeastGeneral(o, w, a, b, maxTerms)
}

// WriteMotifs serializes labeled motifs as JSON lines; ReadMotifs loads
// them back (see label.WriteMotifs/ReadMotifs).
func WriteMotifs(w io.Writer, o *Ontology, motifs []*LabeledMotif) error {
	return label.WriteMotifs(w, o, motifs)
}

// ReadMotifs loads a JSON-lines motif dictionary written by WriteMotifs.
func ReadMotifs(r io.Reader, o *Ontology) ([]*LabeledMotif, int, error) {
	return label.ReadMotifs(r, o)
}

// WriteDOT renders a labeled motif as a Graphviz graph.
func WriteDOT(w io.Writer, o *Ontology, lm *LabeledMotif, name string) error {
	return label.WriteDOT(w, o, lm, name)
}

// FindConforming applies a labeled motif to a (possibly different)
// annotated network, returning the conforming occurrences — dictionary
// lookup against new data.
func FindConforming(g *Graph, c *Corpus, lm *LabeledMotif, limit int) [][]int32 {
	return label.FindConforming(g, c, lm, limit)
}

// Function prediction.
type (
	// Task is a function-prediction benchmark.
	Task = predict.Task
	// Scorer ranks candidate functions for a protein.
	Scorer = predict.Scorer
	// PRPoint is one precision/recall operating point.
	PRPoint = eval.PRPoint
	// Curve is a method's precision/recall trace.
	Curve = eval.Curve
)

// NewTask returns an empty prediction task.
func NewTask(g *Graph, numFunctions int) *Task { return predict.NewTask(g, numFunctions) }

// NewLabeledMotifScorer builds the paper's labeled-motif predictor
// (Eqs. 4-5) from LaMoFinder output.
func NewLabeledMotifScorer(t *Task, motifs []*LabeledMotif) Scorer {
	return label.NewScorer(t, motifs)
}

// Baseline scorers from the paper's Figure 9.
func NewNCScorer(t *Task) Scorer        { return predict.NewNC(t) }
func NewChiSquareScorer(t *Task) Scorer { return predict.NewChiSquare(t) }
func NewMRFScorer(t *Task) Scorer       { return predict.NewMRF(t) }
func NewProdistinScorer(t *Task) Scorer { return predict.NewProdistin(t) }

// NewGibbsMRFScorer is the fuller Gibbs-sampling MRF (Deng et al.'s method
// with unannotated labels integrated out by sampling).
func NewGibbsMRFScorer(t *Task) Scorer {
	return predict.NewGibbsMRF(t, predict.DefaultGibbsConfig())
}

// LeaveOneOut traces a scorer's precision/recall curve (top-k sweep).
func LeaveOneOut(t *Task, s Scorer, maxK int) Curve { return eval.LeaveOneOut(t, s, maxK) }

// Datasets and loaders.
type (
	// YeastConfig sizes the synthetic BIND-like interactome.
	YeastConfig = dataset.YeastConfig
	// TemplateSpec plants one repeated subgraph into the interactome.
	TemplateSpec = dataset.TemplateSpec
	// Yeast is the synthetic whole-genome interactome.
	Yeast = dataset.Yeast
	// MIPSConfig sizes the synthetic prediction benchmark.
	MIPSConfig = dataset.MIPSConfig
	// MIPS is the synthetic prediction benchmark.
	MIPS = dataset.MIPS
)

// NewYeast builds the synthetic interactome (substitute for the paper's
// BIND download; see DESIGN.md).
func NewYeast(cfg YeastConfig) *Yeast { return dataset.NewYeast(cfg) }

// DefaultYeastConfig mirrors the paper's network scale.
func DefaultYeastConfig() YeastConfig { return dataset.DefaultYeastConfig() }

// NewMIPS builds the synthetic prediction benchmark (substitute for the
// paper's MIPS download).
func NewMIPS(cfg MIPSConfig) *MIPS { return dataset.NewMIPS(cfg) }

// DefaultMIPSConfig mirrors the paper's evaluation scale.
func DefaultMIPSConfig() MIPSConfig { return dataset.DefaultMIPSConfig() }

// LoadEdgeList reads a "A B" interaction list, dropping self-links and
// duplicates as the paper does.
func LoadEdgeList(r io.Reader) (*Graph, []string, error) { return dataset.LoadEdgeList(r) }

// LoadAnnotations reads "protein term" annotation pairs into a corpus.
func LoadAnnotations(r io.Reader, o *Ontology, names []string) (*Corpus, int, error) {
	return dataset.LoadAnnotations(r, o, names)
}

// PaperExample returns the paper's worked example (Figures 1-3, Tables
// 1-4) as an exact fixture.
func PaperExample() *dataset.PaperExample { return dataset.NewPaperExample() }

// Directed labeled motifs — the paper's stated further work.
type (
	// DiGraph is a sparse directed network (e.g. gene regulation).
	DiGraph = dimotif.DiGraph
	// DiPattern is a dense directed motif pattern.
	DiPattern = dimotif.DiDense
	// DiMotif is a mined directed motif with occurrences.
	DiMotif = dimotif.Motif
	// LabeledDiMotif is a directed motif with GO label sets.
	LabeledDiMotif = dimotif.LabeledMotif
)

// NewDiGraph returns a directed network with n vertices.
func NewDiGraph(n int) *DiGraph { return dimotif.NewDiGraph(n) }

// NewDiPattern returns an empty directed pattern.
func NewDiPattern(n int) *DiPattern { return dimotif.NewDiDense(n) }

// FindDirectedMotifs mines frequent weakly connected directed patterns.
func FindDirectedMotifs(g *DiGraph, cfg MineConfig) []*DiMotif { return dimotif.Find(g, cfg) }

// ScoreDirectedUniqueness tests directed motifs against in/out-degree-
// preserving randomizations.
func ScoreDirectedUniqueness(g *DiGraph, ms []*DiMotif, cfg NullModel) {
	dimotif.ScoreUniqueness(g, ms, cfg)
}

// FilterUniqueDirected keeps directed motifs with uniqueness >= minUniq.
func FilterUniqueDirected(ms []*DiMotif, minUniq float64) []*DiMotif {
	return dimotif.FilterUnique(ms, minUniq)
}

// LabelDirected runs LaMoFinder on a directed motif using the labeler's
// corpus and configuration.
func LabelDirected(l *Labeler, m *DiMotif) []*LabeledDiMotif { return dimotif.Label(l, m) }
