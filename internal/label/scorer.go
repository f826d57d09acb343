package label

import "lamofinder/internal/predict"

// MotifInputs converts labeled motifs into the slices the predictor needs
// (size, conforming occurrences, frequency, uniqueness). The conversion
// lives here — not in predict — so predict keeps no dependency on the
// labeling pipeline and the dataset package can depend on it cycle-free.
func MotifInputs(ms []*LabeledMotif) []predict.MotifInput {
	inputs := make([]predict.MotifInput, 0, len(ms))
	for _, lm := range ms {
		inputs = append(inputs, predict.MotifInput{
			Size:        lm.Size(),
			Occurrences: lm.Occurrences,
			Frequency:   lm.Frequency,
			Uniqueness:  lm.Uniqueness,
		})
	}
	return inputs
}

// NewScorer builds the paper's labeled-motif predictor (Eqs. 4-5) over a
// task from LaMoFinder output. It is the single construction path shared by
// the Figure-8/9 experiments, the artifact the lamod serving daemon loads,
// and examples/functionprediction.
func NewScorer(t *predict.Task, ms []*LabeledMotif) *predict.LabeledMotif {
	return predict.NewLabeledMotif(t, MotifInputs(ms))
}
