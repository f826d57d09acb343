package predict

// MotifInput is the slice of a labeled network motif the predictor needs:
// its size, conforming occurrences (pattern-vertex order), frequency and
// uniqueness. It mirrors label.LabeledMotif without importing it, so the
// dataset package can depend on predict without a cycle.
type MotifInput struct {
	Size        int
	Occurrences [][]int32
	Frequency   int
	Uniqueness  float64
}

// LabeledMotif predicts protein functions from labeled network motifs,
// implementing the paper's Section 5: a protein occupying vertex v of a
// labeled motif inherits the functions of the proteins that occupy v in the
// motif's other occurrences, weighted by the labeled motif strength LMS
// (Eq. 4), and aggregated by Eq. 5.
type LabeledMotif struct {
	t *Task
	// incidences[p] lists the (motif, vertex) positions protein p occupies.
	incidences [][]incidence
	// lms[g] is the labeled motif strength of motif g.
	lms []float64
	// delta[g][v][f] counts the occurrences of motif g whose protein at
	// vertex v carries function f.
	delta  [][][]float64
	motifs []MotifInput
}

type incidence struct {
	motif, vertex int
	// count is the number of occurrences placing the protein at this
	// (motif, vertex) slot; its own annotations are excluded count times.
	count float64
}

// incIndex merges repeated (protein, motif, vertex) placements in O(1),
// replacing a linear re-scan of the protein's incidence list on every
// occurrence — O(k) per insert for a hub protein with k slots, O(k²) over
// its occurrences. It is a dense map keyed by (motif, vertex) per protein:
// slot p*maxSize+v holds the position of p's incidence for vertex v of the
// motif stamped in the same slot, so a stale stamp (a different motif)
// reads as absent without any clearing between motifs. Incidence slices
// still grow in first-seen order, so construction — and the float
// summation order in Scores — is unchanged from the linear-scan builder.
type incIndex struct {
	maxSize int
	pos     []int32 // position inside incidences[p], valid iff stamped
	stamp   []int32 // 1+motif index that last wrote the slot
}

func newIncIndex(nProteins int, motifs []MotifInput) *incIndex {
	maxSize := 0
	for _, g := range motifs {
		if g.Size > maxSize {
			maxSize = g.Size
		}
	}
	return &incIndex{
		maxSize: maxSize,
		pos:     make([]int32, nProteins*maxSize),
		stamp:   make([]int32, nProteins*maxSize),
	}
}

// NewLabeledMotif indexes the labeled motifs against the task.
func NewLabeledMotif(t *Task, motifs []MotifInput) *LabeledMotif {
	lp := &LabeledMotif{
		t:          t,
		incidences: make([][]incidence, t.Network.N()),
		motifs:     motifs,
	}
	var at *incIndex
	if len(motifs) > 0 {
		at = newIncIndex(t.Network.N(), motifs)
	}
	// LMS(g) = s(g)*|g| / max_k over same-size labeled motifs (Eq. 4).
	maxBySize := map[int]float64{}
	for _, g := range motifs {
		v := g.Uniqueness * float64(g.Frequency)
		if v > maxBySize[g.Size] {
			maxBySize[g.Size] = v
		}
	}
	lp.lms = make([]float64, len(motifs))
	for i, g := range motifs {
		if mk := maxBySize[g.Size]; mk > 0 {
			lp.lms[i] = g.Uniqueness * float64(g.Frequency) / mk
		}
	}
	// Function tallies per (motif, vertex).
	lp.delta = make([][][]float64, len(motifs))
	for gi, g := range motifs {
		nv := g.Size
		lp.delta[gi] = make([][]float64, nv)
		for v := 0; v < nv; v++ {
			lp.delta[gi][v] = make([]float64, t.NumFunctions)
		}
		for _, occ := range g.Occurrences {
			for v, p := range occ {
				for _, f := range t.Functions[p] {
					lp.delta[gi][v][f]++
				}
				lp.addIncidence(at, int(p), gi, v)
			}
		}
	}
	return lp
}

// addIncidence records one more occurrence of protein p at (motif, vertex),
// merging repeats into a count via the construction-time position index.
func (lp *LabeledMotif) addIncidence(at *incIndex, p, motif, vertex int) {
	slot := p*at.maxSize + vertex
	if at.stamp[slot] == int32(motif+1) {
		lp.incidences[p][at.pos[slot]].count++
		return
	}
	at.stamp[slot] = int32(motif + 1)
	at.pos[slot] = int32(len(lp.incidences[p]))
	lp.incidences[p] = append(lp.incidences[p], incidence{motif, vertex, 1})
}

// Name implements Scorer.
func (lp *LabeledMotif) Name() string { return "LabeledMotif" }

// Scores implements Scorer (Eq. 5): f_x(p) = (1/z) sum over the labeled
// motifs containing p of delta_g(v, x) * LMS(g), with p's own annotations
// excluded from delta and z normalizing the maximum to 1.
func (lp *LabeledMotif) Scores(p int) []float64 {
	out := make([]float64, lp.t.NumFunctions)
	for _, inc := range lp.incidences[p] {
		w := lp.lms[inc.motif]
		if w == 0 {
			continue
		}
		d := lp.delta[inc.motif][inc.vertex]
		for f := range out {
			c := d[f]
			// Exclude the query protein's own annotations at this slot,
			// once per occurrence it fills.
			if lp.t.Has(p, f) {
				c -= inc.count
			}
			if c > 0 {
				// The conversion rounds the product, so no architecture
				// fuses it into the sum (make fma).
				out[f] += float64(c * w)
			}
		}
	}
	z := 0.0
	for _, v := range out {
		if v > z {
			z = v
		}
	}
	if z > 0 {
		for f := range out {
			out[f] /= z
		}
	}
	return out
}

// Coverage returns the number of proteins that occur in at least one
// labeled motif — the method can only score those.
func (lp *LabeledMotif) Coverage() int {
	n := 0
	for _, inc := range lp.incidences {
		if len(inc) > 0 {
			n++
		}
	}
	return n
}
