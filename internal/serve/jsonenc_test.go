package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"lamofinder/internal/predict"
	"lamofinder/internal/query"
)

// PredictResponse is the body of /v1/predict, as encoding/json renders
// it: the reference appendPredictResponse must match byte for byte, and
// the shape the tests decode responses into.
type PredictResponse struct {
	Artifact string          `json:"artifact"`
	K        int             `json:"k"`
	Results  []ProteinResult `json:"results"`
}

// ProteinResult is the ranking for one queried protein.
type ProteinResult struct {
	Protein     string       `json:"protein"`
	Predictions []Prediction `json:"predictions"`
}

// Prediction is one ranked function for one protein.
type Prediction struct {
	Function int     `json:"function"`
	Name     string  `json:"name"`
	Score    float64 `json:"score"`
}

// TestAppendPredictResponseMatchesStdlib renders full response bodies both
// ways and requires identical bytes, including empty rankings, empty
// batches, and protein and function names that need escaping.
func TestAppendPredictResponseMatchesStdlib(t *testing.T) {
	art := *indexedModel(t) // shares the graph and the score index
	art.FunctionNames = make([]string, art.NumFunctions)
	for f := range art.FunctionNames {
		art.FunctionNames[f] = []string{"GO:0000001", "transport & binding", "ribosome <LSU>", "väx"}[f%4]
	}
	v, err := query.NewView(&art, 0)
	if err != nil {
		t.Fatal(err)
	}
	// ranked lists every vertex that ranks two or more functions.
	var ranked []int
	for p := 0; p < v.NumProteins(); p++ {
		if len(v.Ranking(p)) > 1 {
			ranked = append(ranked, p)
		}
	}
	if len(ranked) < 3 {
		t.Fatalf("fixture ranks %d proteins with two or more functions, want 3", len(ranked))
	}
	top := func(p, k int) []predict.Ranked { return v.Ranking(p)[:min(k, len(v.Ranking(p)))] }
	cases := []struct {
		name     string
		k        int
		proteins []string
		ids      []int
		rankings [][]predict.Ranked
	}{
		{"empty batch", 5, nil, nil, nil},
		{"one empty ranking", 3, []string{"p1"}, []int{ranked[0]}, [][]predict.Ranked{nil}},
		{
			"full batch", 4,
			[]string{"p1", `q"2`, "sep\u2028"},
			ranked[:3],
			[][]predict.Ranked{top(ranked[0], 4), top(ranked[1], 1), top(ranked[2], 4)},
		},
	}
	for _, tc := range cases {
		resp := PredictResponse{Artifact: v.Digest(), K: tc.k, Results: []ProteinResult{}}
		for i, name := range tc.proteins {
			pr := ProteinResult{Protein: name, Predictions: []Prediction{}}
			for _, r := range tc.rankings[i] {
				pr.Predictions = append(pr.Predictions, Prediction{
					Function: r.Function, Name: art.FunctionNames[r.Function], Score: r.Score,
				})
			}
			resp.Results = append(resp.Results, pr)
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got := appendPredictResponse(nil, v, tc.k, tc.proteins, tc.ids, tc.rankings)
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\ngot    %s\nstdlib %s", tc.name, got, want)
		}
	}
}
