package serve

import (
	"strconv"

	"lamofinder/internal/jsonx"
	"lamofinder/internal/predict"
	"lamofinder/internal/query"
)

// This file is the zero-allocation JSON encoder for the predict hot path.
// Responses were previously rendered by encoding/json over response
// structs; the append-style encoder below produces byte-identical output
// for the fixed /v1/predict shape without reflection or intermediate
// buffers, so an index hit can serve entirely from a pooled []byte.
// Function names and scores are copied from the query view's text,
// encoded once per model load; the request's protein names are quoted
// through internal/jsonx (shared with the bulk-query row encoder).
// TestAppendPredictResponseMatchesStdlib pins the response-shape
// compatibility.

// appendPredictResponse renders the full /v1/predict body (trailing
// newline included): byte-for-byte what json.Marshal produces over
// PredictResponse, built by appending into the caller's buffer.
// rankings[i] is the (already truncated) ranking of vertex ids[i], asked
// for as proteins[i].
//
// alloc-budget: 0
func appendPredictResponse(buf []byte, v *query.View, k int, proteins []string,
	ids []int, rankings [][]predict.Ranked) []byte {
	buf = append(buf, `{"artifact":`...)
	buf = jsonx.AppendString(buf, v.Digest())
	buf = append(buf, `,"k":`...)
	buf = strconv.AppendInt(buf, int64(k), 10)
	buf = append(buf, `,"results":[`...)
	for i, name := range proteins {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"protein":`...)
		buf = jsonx.AppendString(buf, name)
		buf = append(buf, `,"predictions":[`...)
		for j, r := range rankings[i] {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"function":`...)
			buf = strconv.AppendInt(buf, int64(r.Function), 10)
			buf = append(buf, `,"name":`...)
			buf = append(buf, v.FunctionJSON(r.Function)...)
			buf = append(buf, `,"score":`...)
			buf = append(buf, v.ScoreJSON(ids[i], r.Function)...)
			buf = append(buf, '}')
		}
		buf = append(buf, `]}`...)
	}
	buf = append(buf, `]}`...)
	return append(buf, '\n')
}
