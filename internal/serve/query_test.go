package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"lamofinder/internal/artifact"
	"lamofinder/internal/dataset"
	"lamofinder/internal/label"
)

// plantedMotifs converts the benchmark's planted templates into
// labeled-motif fixtures: ground-truth occurrence sets with full frequency
// and fixed high uniqueness, vertices left unlabeled. Eq.-5 scoring reads
// only topology, occurrences, frequency, and uniqueness, so these score
// exactly like mined motifs while skipping ESU and LaMoFinder entirely.
func plantedMotifs(m *dataset.MIPS) []*label.LabeledMotif {
	motifs := make([]*label.LabeledMotif, 0, len(m.Planted))
	for _, pt := range m.Planted {
		if len(pt.Instances) == 0 {
			continue
		}
		motifs = append(motifs, &label.LabeledMotif{
			Pattern:     pt.Pattern,
			Labels:      make([][]int32, pt.Pattern.N()),
			Occurrences: pt.Instances,
			Frequency:   len(pt.Instances),
			Uniqueness:  0.9,
		})
	}
	return motifs
}

// mipsArt is the full-size (1877-protein) indexed artifact the bulk-query
// tests and benchmarks serve, built once from the synthetic MIPS benchmark
// with the planted templates standing in for mined motifs. It carries the
// fixed golden build trace, so its digest is the one the query goldens
// were recorded with.
var mipsArt = sync.OnceValue(func() *artifact.Artifact {
	m := dataset.NewMIPS(dataset.DefaultMIPSConfig())
	art, err := artifact.Build("mips-synthetic", "query serve fixture",
		m.Task, m.CategoryNames(), m.Corpus, m.Corpus.DirectCounts(), 30, plantedMotifs(m))
	if err != nil {
		panic(err)
	}
	art.BuildIndex(0)
	art.Stats = goldenStats()
	return art
})

func postQuery(t testing.TB, url, plan string) (int, []byte) {
	t.Helper()
	return post(t, url+"/v1/query", plan)
}

// queryBody is the decoded /v1/query response.
type queryBody struct {
	Artifact string            `json:"artifact"`
	Columns  []string          `json:"columns"`
	RowCount int               `json:"row_count"`
	Rows     []json.RawMessage `json:"rows"`
}

// TestQueryEndpoint exercises the basic served flow: a filtered top-k plan
// returns well-formed rows pinned to the served artifact.
func TestQueryEndpoint(t *testing.T) {
	art, _, _ := exampleModel(t)
	ts := newTestServer(t, reload(t, art), Config{})
	status, body := postQuery(t, ts.URL, `{"topk":3}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var dec queryBody
	if err := json.Unmarshal(body, &dec); err != nil {
		t.Fatalf("bad body: %v\n%s", err, body)
	}
	if dec.RowCount != len(dec.Rows) || dec.RowCount == 0 {
		t.Fatalf("row_count %d with %d rows", dec.RowCount, len(dec.Rows))
	}
	if len(dec.Columns) != 3 || dec.Columns[0] != "protein" {
		t.Fatalf("default columns = %v", dec.Columns)
	}
	if !bytes.HasSuffix(body, []byte("]}\n")) {
		t.Fatal("body does not end in ]}\\n")
	}
	// The artifact digest must identify the served snapshot.
	var hz struct {
		Artifact string `json:"artifact"`
	}
	_, hzBody := get(t, ts.URL+"/v1/healthz")
	if err := json.Unmarshal(hzBody, &hz); err != nil {
		t.Fatal(err)
	}
	if dec.Artifact != hz.Artifact {
		t.Fatalf("query artifact %q, healthz says %q", dec.Artifact, hz.Artifact)
	}
}

// TestQueryMatchesPredictFor50Proteins is the satellite parity gate: a
// protein-pinned topk plan must emit exactly the function/name/score rows
// /v1/predict returns, for 50 proteins sampled across the interactome.
func TestQueryMatchesPredictFor50Proteins(t *testing.T) {
	art := mipsArt()
	ts := newTestServer(t, art, Config{})
	n := art.Graph.N()
	const k = 5
	sampled := 0
	for p := 0; p < n && sampled < 50; p += n / 50 {
		name := art.Graph.Name(p)
		sampled++

		status, pbody := get(t, fmt.Sprintf("%s/v1/predict?protein=%s&k=%d", ts.URL, name, k))
		if status != http.StatusOK {
			t.Fatalf("predict %s: status %d: %s", name, status, pbody)
		}
		var pr PredictResponse
		if err := json.Unmarshal(pbody, &pr); err != nil {
			t.Fatal(err)
		}

		plan := fmt.Sprintf(`{"filter":[{"field":"protein","op":"in","names":[%q]}],"topk":%d,"project":["protein","function","name","score"]}`, name, k)
		status, qbody := postQuery(t, ts.URL, plan)
		if status != http.StatusOK {
			t.Fatalf("query %s: status %d: %s", name, status, qbody)
		}
		var dec queryBody
		if err := json.Unmarshal(qbody, &dec); err != nil {
			t.Fatal(err)
		}

		preds := pr.Results[0].Predictions
		if len(preds) != dec.RowCount {
			t.Fatalf("protein %s: predict has %d predictions, query %d rows", name, len(preds), dec.RowCount)
		}
		for i, pd := range preds {
			var row []json.RawMessage
			if err := json.Unmarshal(dec.Rows[i], &row); err != nil || len(row) != 4 {
				t.Fatalf("protein %s row %d: %v (%s)", name, i, err, dec.Rows[i])
			}
			var rp, rn string
			var rf int
			var rs float64
			for j, into := range []any{&rp, &rf, &rn, &rs} {
				if err := json.Unmarshal(row[j], into); err != nil {
					t.Fatal(err)
				}
			}
			if rp != name || rf != pd.Function || rn != pd.Name || rs != pd.Score {
				t.Fatalf("protein %s rank %d: query [%s %d %s %v], predict [%s %d %s %v]",
					name, i, rp, rf, rn, rs, name, pd.Function, pd.Name, pd.Score)
			}
		}
	}
	if sampled != 50 {
		t.Fatalf("sampled %d proteins, want 50", sampled)
	}
}

// TestQueryDeterministicAcrossParallelism is the served half of the
// byte-determinism gate: identical plan bytes across Parallelism 1 vs 4,
// across runs, and across server instances.
func TestQueryDeterministicAcrossParallelism(t *testing.T) {
	art := mipsArt()
	plans := []string{
		`{"topk":5}`,
		`{"filter":[{"field":"degree","op":"ge","value":2},{"field":"annotated","op":"eq","bool":false}],"topk":3}`,
		`{"group_by":"category","topk":7}`,
		`{"group_by":"category","topk":2,"filter":[{"field":"score","op":"ge","value":0.05}],"project":["function","name","protein","score"]}`,
	}
	for pi, plan := range plans {
		var ref []byte
		for _, parallelism := range []int{1, 4} {
			ts := newTestServer(t, art, Config{Parallelism: parallelism})
			for run := 0; run < 2; run++ {
				status, body := postQuery(t, ts.URL, plan)
				if status != http.StatusOK {
					t.Fatalf("plan %d: status %d: %s", pi, status, body)
				}
				if ref == nil {
					ref = body
					continue
				}
				if !bytes.Equal(ref, body) {
					t.Fatalf("plan %d: bytes differ at parallelism %d run %d", pi, parallelism, run)
				}
			}
			ts.Close()
		}
	}
}

// TestQueryAndPredictFieldErrors pins the shared structured validation
// body: both endpoints reject bad inputs with the same (field, reason)
// JSON shape.
func TestQueryAndPredictFieldErrors(t *testing.T) {
	art, _, _ := exampleModel(t)
	ts := newTestServer(t, reload(t, art), Config{})

	type fieldErr struct {
		Error  string `json:"error"`
		Field  string `json:"field"`
		Reason string `json:"reason"`
	}
	check := func(status int, body []byte, wantStatus int, wantField string) {
		t.Helper()
		if status != wantStatus {
			t.Fatalf("status %d, want %d: %s", status, wantStatus, body)
		}
		var fe fieldErr
		if err := json.Unmarshal(body, &fe); err != nil {
			t.Fatalf("unstructured error body: %v\n%s", err, body)
		}
		if fe.Field != wantField || fe.Reason == "" {
			t.Fatalf("error field %q (%s), want %q", fe.Field, fe.Reason, wantField)
		}
		if !strings.Contains(fe.Error, fe.Field) {
			t.Fatalf("flat message %q does not name the field", fe.Error)
		}
	}

	// Plan-side failures.
	st, body := postQuery(t, ts.URL, `{"scan":"motifs"}`)
	check(st, body, http.StatusBadRequest, "scan")
	st, body = postQuery(t, ts.URL, `{"topk":-2}`)
	check(st, body, http.StatusBadRequest, "topk")
	st, body = postQuery(t, ts.URL, `{"filter":[{"field":"degree","op":"in"}]}`)
	check(st, body, http.StatusBadRequest, "filter[0].op")
	st, body = postQuery(t, ts.URL, `{"filter":[{"field":"protein","op":"in","names":["nope"]}]}`)
	check(st, body, http.StatusBadRequest, "filter[0].names[0]")
	st, body = postQuery(t, ts.URL, `not json`)
	check(st, body, http.StatusBadRequest, "body")

	// Predict-side failures, through the same shared validators.
	st, body = get(t, ts.URL+"/v1/predict?protein=p1&k=-1")
	check(st, body, http.StatusBadRequest, "topk")
	st, body = get(t, ts.URL+"/v1/predict?k=3")
	check(st, body, http.StatusBadRequest, "proteins")
	st, body = get(t, ts.URL+"/v1/predict?protein=p1"+strings.Repeat("&protein=p1", maxBatch))
	check(st, body, http.StatusBadRequest, "proteins")
	st, body = get(t, ts.URL+"/v1/predict?protein=zzz")
	check(st, body, http.StatusNotFound, "protein")
	st, body = get(t, ts.URL+"/v1/predict?protein=p1&k=abc")
	check(st, body, http.StatusBadRequest, "k")
}

// TestQueryMetrics checks the observability wiring: the query counters and
// the per-plan-kind and per-route latency series on /metrics.
func TestQueryMetrics(t *testing.T) {
	art, _, _ := exampleModel(t)
	ts := newTestServer(t, reload(t, art), Config{})
	for _, plan := range []string{`{}`, `{"topk":2}`, `{"group_by":"category","topk":1}`} {
		if st, body := postQuery(t, ts.URL, plan); st != http.StatusOK {
			t.Fatalf("plan %s: status %d: %s", plan, st, body)
		}
	}
	_, pbody := get(t, ts.URL+"/metrics")
	for _, series := range []string{
		"\nlamod_queries_total 3\n",
		"\nlamod_query_rows_total ",
		`lamod_query_duration_seconds_count{plan="scan"} 1` + "\n",
		`lamod_query_duration_seconds_count{plan="topk"} 1` + "\n",
		`lamod_query_duration_seconds_count{plan="group_topk"} 1` + "\n",
		`lamod_request_duration_seconds_count{route="query"} 3` + "\n",
	} {
		if !strings.Contains(string(pbody), series) {
			t.Fatalf("prom body missing %q", series)
		}
	}
	if strings.Contains(string(pbody), "\nlamod_query_rows_total 0\n") {
		t.Fatal("query_rows = 0 after three plans")
	}
}

// TestQueryMethodNotAllowed pins the 405 for GET.
func TestQueryMethodNotAllowed(t *testing.T) {
	art, _, _ := exampleModel(t)
	ts := newTestServer(t, reload(t, art), Config{})
	status, _ := get(t, ts.URL+"/v1/query")
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query status %d, want 405", status)
	}
}

// TestDuplicateNameResolvesToLowestVertex: when two vertices share a name,
// /v1/predict and a protein-pinned plan resolve it through one name table
// to the same vertex, the lowest one.
func TestDuplicateNameResolvesToLowestVertex(t *testing.T) {
	b, err := mipsArt().Encode()
	if err != nil {
		t.Fatal(err)
	}
	art, err := artifact.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	art.Graph.SetName(1, art.Graph.Name(0))
	ts := newTestServer(t, reload(t, art), Config{})
	name := art.Graph.Name(0)
	const k = 3
	want := mipsArt().Index.Ranking(0)[:k]

	status, pbody := get(t, fmt.Sprintf("%s/v1/predict?protein=%s&k=%d", ts.URL, name, k))
	if status != http.StatusOK {
		t.Fatalf("predict: status %d: %s", status, pbody)
	}
	var pr PredictResponse
	if err := json.Unmarshal(pbody, &pr); err != nil {
		t.Fatal(err)
	}
	plan := fmt.Sprintf(`{"filter":[{"field":"protein","op":"in","names":[%q]}],"topk":%d,"project":["function","score"]}`, name, k)
	status, qbody := postQuery(t, ts.URL, plan)
	if status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, qbody)
	}
	var dec queryBody
	if err := json.Unmarshal(qbody, &dec); err != nil {
		t.Fatal(err)
	}
	preds := pr.Results[0].Predictions
	if len(preds) != k || dec.RowCount != k {
		t.Fatalf("predict has %d predictions, query %d rows, want %d", len(preds), dec.RowCount, k)
	}
	for i, w := range want {
		var row [2]float64 // [function, score]
		if err := json.Unmarshal(dec.Rows[i], &row); err != nil {
			t.Fatalf("row %d: %v (%s)", i, err, dec.Rows[i])
		}
		if preds[i].Function != w.Function || preds[i].Score != w.Score {
			t.Fatalf("predict rank %d: (%d, %v), vertex 0 has (%d, %v)", i, preds[i].Function, preds[i].Score, w.Function, w.Score)
		}
		if int(row[0]) != w.Function || row[1] != w.Score {
			t.Fatalf("query rank %d: (%v, %v), vertex 0 has (%d, %v)", i, row[0], row[1], w.Function, w.Score)
		}
	}
}
