// Package artifact implements the lamod model artifact: a versioned,
// checksummed, byte-deterministic snapshot of everything the serving
// daemon needs to answer function-prediction queries — the annotated
// interaction network, the GO slice with its genome-specific term weights
// and border informative FC, and the mined labeled motifs with their
// conforming occurrence sets.
//
// The expensive half of the paper's pipeline (mining, uniqueness testing,
// LaMoFinder labeling) runs once in `lamod build` and is compiled into an
// immutable file; `lamod serve` then loads the file read-only and scores
// arbitrarily many queries against it. Save and Load round-trip
// byte-identically (save→load→save produces the same bytes), and Load
// refuses files with a foreign magic, a mismatched format version, or a
// payload whose SHA-256 digest does not match the recorded one.
package artifact

import (
	"fmt"
	"os"

	"lamofinder/internal/graph"
	"lamofinder/internal/label"
	"lamofinder/internal/obs"
	"lamofinder/internal/ontology"
	"lamofinder/internal/predict"
)

// Artifact is the in-memory form of one lamod model snapshot. All fields
// are treated as immutable once built or loaded; the serving daemon shares
// one Artifact across every request goroutine.
type Artifact struct {
	// Dataset names the data the model was built from; Note carries a
	// free-form build annotation (config fingerprint, operator comment).
	Dataset string
	Note    string

	// Graph is the PPI network with protein names attached.
	Graph *graph.Graph
	// NumFunctions and Functions mirror predict.Task: per-protein category
	// ids. FunctionNames[f] is the display name of category f (for the MIPS
	// benchmark, the GO term id of the category subtree root).
	NumFunctions  int
	FunctionNames []string
	Functions     [][]int

	// Ontology is the GO slice the motifs were labeled against, with the
	// direct annotation Corpus and the genome-specific term Weights.
	Ontology *ontology.Ontology
	Weights  ontology.Weights
	Corpus   *ontology.Corpus
	// MinDirect is the informative-FC threshold the border was derived
	// with; Border lists the border informative FC term indices.
	MinDirect int
	Border    []int

	// Motifs are the mined labeled motifs with their occurrence sets.
	Motifs []*label.LabeledMotif

	// Index is the build-time score index (see ScoreIndex) the daemon
	// serves from. Build leaves it nil; BuildIndex attaches it, and Encode
	// refuses an artifact without one.
	Index *ScoreIndex

	// Stats optionally records per-stage build telemetry (wall time, item
	// counts, worker utilization) from the mining pipeline. Stats are
	// stored after the payload and excluded from the identity digest, so
	// two builds of the same model keep one digest regardless of how long
	// each stage took.
	Stats []obs.StageStat

	digest string // hex SHA-256 of header+payload, cached by Encode/Load
}

// Build assembles and validates an artifact from pipeline outputs. direct
// holds the per-term direct annotation counts that weights and the border
// informative FC are derived from — usually corpus.DirectCounts(), but a
// whole-genome census for fixtures like the paper's worked example.
func Build(dataset, note string, task *predict.Task, functionNames []string,
	corpus *ontology.Corpus, direct []int, minDirect int,
	motifs []*label.LabeledMotif) (*Artifact, error) {
	n := task.Network.N()
	o := corpus.Ontology()
	if corpus.NumProteins() != n {
		return nil, fmt.Errorf("artifact: corpus covers %d proteins, network has %d", corpus.NumProteins(), n)
	}
	if len(functionNames) != task.NumFunctions {
		return nil, fmt.Errorf("artifact: %d function names for %d functions", len(functionNames), task.NumFunctions)
	}
	if len(direct) != o.NumTerms() {
		return nil, fmt.Errorf("artifact: %d direct counts for %d terms", len(direct), o.NumTerms())
	}
	for p, fs := range task.Functions {
		for _, f := range fs {
			if f < 0 || f >= task.NumFunctions {
				return nil, fmt.Errorf("artifact: protein %d carries function %d outside [0,%d)", p, f, task.NumFunctions)
			}
		}
	}
	for mi, lm := range motifs {
		nv := lm.Size()
		if len(lm.Labels) != nv {
			return nil, fmt.Errorf("artifact: motif %d has %d label rows for %d vertices", mi, len(lm.Labels), nv)
		}
		for _, ts := range lm.Labels {
			for _, t := range ts {
				if int(t) < 0 || int(t) >= o.NumTerms() {
					return nil, fmt.Errorf("artifact: motif %d labels unknown term %d", mi, t)
				}
			}
		}
		for _, occ := range lm.Occurrences {
			if len(occ) != nv {
				return nil, fmt.Errorf("artifact: motif %d has a %d-vertex occurrence for %d vertices", mi, len(occ), nv)
			}
			for _, p := range occ {
				if int(p) < 0 || int(p) >= n {
					return nil, fmt.Errorf("artifact: motif %d occurrence names protein %d outside [0,%d)", mi, p, n)
				}
			}
		}
	}
	return &Artifact{
		Dataset:       dataset,
		Note:          note,
		Graph:         task.Network,
		NumFunctions:  task.NumFunctions,
		FunctionNames: functionNames,
		Functions:     task.Functions,
		Ontology:      o,
		Weights:       o.ComputeWeights(direct),
		Corpus:        corpus,
		MinDirect:     minDirect,
		Border:        o.BorderInformativeFC(direct, minDirect),
		Motifs:        motifs,
	}, nil
}

// Task reconstructs the prediction task the artifact snapshots. The task
// shares the artifact's backing slices, so it must be treated read-only.
func (a *Artifact) Task() *predict.Task {
	return &predict.Task{
		Network:      a.Graph,
		NumFunctions: a.NumFunctions,
		Functions:    a.Functions,
	}
}

// NewScorer constructs the labeled-motif predictor over the snapshot — the
// same constructor the Figure-9 experiment uses, so served scores are
// bitwise-identical to the offline pipeline's.
func (a *Artifact) NewScorer() *predict.LabeledMotif {
	return label.NewScorer(a.Task(), a.Motifs)
}

// Coverage counts the proteins that occur in at least one labeled motif,
// the population Eq. 5 can score at all. It equals NewScorer().Coverage()
// without building the scorer: one pass over the motifs' occurrences.
func (a *Artifact) Coverage() int {
	seen := make([]uint64, (a.Graph.N()+63)/64)
	n := 0
	for _, lm := range a.Motifs {
		for _, occ := range lm.Occurrences {
			for _, p := range occ {
				w, bit := p>>6, uint64(1)<<(p&63)
				if seen[w]&bit == 0 {
					seen[w] |= bit
					n++
				}
			}
		}
	}
	return n
}

// Digest returns the hex SHA-256 of the artifact's encoded form, encoding
// on first use. Loaded artifacts carry the verified on-disk digest.
func (a *Artifact) Digest() (string, error) {
	if a.digest == "" {
		if _, err := a.Encode(); err != nil {
			return "", err
		}
	}
	return a.digest, nil
}

// SaveFile encodes the artifact to path (0644, truncating).
func (a *Artifact) SaveFile(path string) error {
	b, err := a.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// LoadFile reads and verifies an artifact file.
func LoadFile(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}
