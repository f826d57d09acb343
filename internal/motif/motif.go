// Package motif discovers network motifs: connected subgraph patterns that
// repeat in a network (frequency) and are over-represented relative to
// degree-preserving random networks (uniqueness). It provides an exact ESU
// enumerator (the mfinder/FANMOD baseline) for small sizes and a beam-style
// frequent-subgraph miner that reaches the meso-scale sizes (up to 20
// vertices) that NeMoFinder targets, keeping the occurrence lists the
// labeling stage needs.
package motif

import (
	"fmt"

	"lamofinder/internal/graph"
)

// Motif is a discovered pattern with the occurrences that support it.
type Motif struct {
	// Pattern is the class representative; occurrence vertex order follows
	// the pattern's vertex order.
	Pattern *graph.Dense
	// Occurrences holds, per occurrence, the graph vertex assigned to each
	// pattern vertex: Occurrences[k][i] plays the role of pattern vertex i.
	Occurrences [][]int32
	// Frequency is the number of distinct vertex sets observed for the
	// pattern (may exceed len(Occurrences) when lists are capped).
	Frequency int
	// Uniqueness is the fraction of randomized networks in which the real
	// frequency is >= the randomized frequency (set by ScoreUnique; -1
	// until then). A motif ScoreUnique dropped reads an upper bound on that
	// fraction, below the threshold it missed.
	Uniqueness float64
}

// Size returns the number of vertices of the motif pattern.
func (m *Motif) Size() int { return m.Pattern.N() }

// String summarizes the motif.
func (m *Motif) String() string {
	return fmt.Sprintf("motif%s freq=%d uniq=%.2f", m.Pattern, m.Frequency, m.Uniqueness)
}
