package label

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"lamofinder/internal/ontology"
)

// motifJSON is the serialized form of a LabeledMotif: edges as index pairs,
// labels as GO term ids.
type motifJSON struct {
	N           int        `json:"n"`
	Edges       [][2]int   `json:"edges"`
	Labels      [][]string `json:"labels"`
	Occurrences [][]int32  `json:"occurrences"`
	Frequency   int        `json:"frequency"`
	Uniqueness  float64    `json:"uniqueness"`
}

// WriteMotifs serializes labeled motifs as JSON lines (one motif per line),
// with labels encoded as term ids so the dictionary survives ontology
// reindexing.
func WriteMotifs(w io.Writer, o *ontology.Ontology, motifs []*LabeledMotif) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, lm := range motifs {
		j := motifJSON{
			N:           lm.Size(),
			Occurrences: lm.Occurrences,
			Frequency:   lm.Frequency,
			Uniqueness:  lm.Uniqueness,
		}
		for i := 0; i < lm.Size(); i++ {
			for p := 0; p < i; p++ {
				if lm.Pattern.HasEdge(i, p) {
					j.Edges = append(j.Edges, [2]int{p, i})
				}
			}
		}
		j.Labels = make([][]string, lm.Size())
		for v, ts := range lm.Labels {
			for _, t := range ts {
				j.Labels[v] = append(j.Labels[v], o.ID(int(t)))
			}
		}
		if err := enc.Encode(&j); err != nil {
			return fmt.Errorf("label: encode motif: %w", err)
		}
	}
	return bw.Flush()
}
