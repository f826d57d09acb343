package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lamofinder/internal/obs"
)

// tracedServer builds a server with a deterministic trace setup: a fresh
// tracer at the given head-sampling rate.
func tracedServer(t testing.TB, sampleEvery int) (*Server, *httptest.Server) {
	t.Helper()
	art, _, _ := exampleModel(t)
	s, err := New(reload(t, art), Config{
		TraceSampleEvery: sampleEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func do(t *testing.T, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestPredictTraceRoundTrip: a force-sampled predict request lands in the
// store and comes back from GET /v1/traces/{id} as a span tree with the
// handler's parse/rank/encode children under the root.
func TestPredictTraceRoundTrip(t *testing.T) {
	_, ts := tracedServer(t, -1) // forced-only sampling
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/predict?protein=p1&k=3", nil)
	req.Header.Set("X-Request-Id", "probe-77")
	resp, _ := do(t, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}

	status, body := get(t, ts.URL+"/v1/traces/probe-77")
	if status != http.StatusOK {
		t.Fatalf("trace fetch status %d: %s", status, body)
	}
	var out obs.TraceOut
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("trace body does not parse: %v\n%s", err, body)
	}
	if out.Trace != "probe-77" || out.RemoteParent != -1 {
		t.Fatalf("trace identity wrong: %+v", out)
	}
	if len(out.Spans) == 0 || out.Spans[0].Name != "predict" || out.Spans[0].Parent != -1 {
		t.Fatalf("root span wrong: %+v", out.Spans)
	}
	children := map[string]obs.SpanOut{}
	for _, sp := range out.Spans[1:] {
		if sp.Parent != 0 {
			t.Fatalf("span %q not parented to root: %+v", sp.Name, sp)
		}
		children[sp.Name] = sp
	}
	for _, name := range []string{"parse", "rank", "encode"} {
		if _, ok := children[name]; !ok {
			t.Fatalf("child span %q missing: %+v", name, out.Spans)
		}
	}
	if rank := children["rank"]; rank.RowsIn != 1 || rank.RowsOut != 1 {
		t.Fatalf("rank span rows wrong: %+v", rank)
	}

	// The listing sees the same trace, newest first.
	status, body = get(t, ts.URL+"/v1/traces")
	if status != http.StatusOK {
		t.Fatalf("trace list status %d", status)
	}
	var list tracesResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 || list.Traces[0].Trace != "probe-77" || list.Traces[0].Root != "predict" {
		t.Fatalf("trace list wrong: %+v", list.Traces)
	}

	// An unknown ID 404s with a hint about store capacity.
	status, body = get(t, ts.URL+"/v1/traces/never-seen")
	if status != http.StatusNotFound || !bytes.Contains(body, []byte("most recent")) {
		t.Fatalf("missing-trace response wrong: %d %s", status, body)
	}
}

// TestQueryTraceOperatorSpans: a query traced via X-Trace-Sample carries
// per-operator child spans under its execute span, with the engine's
// deterministic row counts, and the response's X-Request-Id names the
// stored trace even though the client sent no ID.
func TestQueryTraceOperatorSpans(t *testing.T) {
	_, ts := tracedServer(t, -1)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query",
		strings.NewReader(`{"topk":2}`))
	req.Header.Set(obs.HeaderTraceSample, "1")
	resp, _ := do(t, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("sampled query response carries no X-Request-Id")
	}

	status, body := get(t, ts.URL+"/v1/traces/"+id)
	if status != http.StatusOK {
		t.Fatalf("trace fetch status %d: %s", status, body)
	}
	var out obs.TraceOut
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Spans[0].Name != "query" {
		t.Fatalf("root span wrong: %+v", out.Spans)
	}
	var execID int32 = -1
	for _, sp := range out.Spans {
		if sp.Name == "execute" {
			execID = sp.ID
		}
	}
	if execID < 0 {
		t.Fatalf("execute span missing: %+v", out.Spans)
	}
	ops := map[string]obs.SpanOut{}
	for _, sp := range out.Spans {
		if sp.Parent == execID {
			ops[sp.Name] = sp
		}
	}
	for _, name := range []string{"scan", "filter", "emit"} {
		if _, ok := ops[name]; !ok {
			t.Fatalf("operator span %q missing under execute: %+v", name, out.Spans)
		}
	}
	if scan := ops["scan"]; scan.RowsIn == 0 || scan.RowsIn != scan.RowsOut {
		t.Fatalf("scan span rows wrong: %+v", scan)
	}
}

// TestTraceContextPropagation: a request carrying X-Trace-Context adopts
// the upstream trace ID and records the remote parent span index, so a
// gateway can stitch the replica tree under its own upstream span.
func TestTraceContextPropagation(t *testing.T) {
	_, ts := tracedServer(t, -1)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/predict?protein=p1&k=3", nil)
	req.Header.Set(obs.HeaderTraceContext, "gw-42:3")
	resp, _ := do(t, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	status, body := get(t, ts.URL+"/v1/traces/gw-42")
	if status != http.StatusOK {
		t.Fatalf("trace fetch status %d: %s", status, body)
	}
	var out obs.TraceOut
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace != "gw-42" || out.RemoteParent != 3 {
		t.Fatalf("propagated trace identity wrong: %+v", out)
	}
}

// TestHeadSamplingMintsID: with 1-in-1 head sampling, each anonymous
// request is traced under the one ID minted for it, and that ID is the one
// echoed to the client — the response header is the ticket to the stored
// trace. Two requests mint req-1 and req-2, and the store holds exactly
// those two traces, newest first.
func TestHeadSamplingMintsID(t *testing.T) {
	_, ts := tracedServer(t, 1)
	for _, want := range []string{"req-1", "req-2"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/predict?protein=p1&k=3", nil)
		resp, _ := do(t, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d", resp.StatusCode)
		}
		if id := resp.Header.Get("X-Request-Id"); id != want {
			t.Fatalf("X-Request-Id %q, want %q", id, want)
		}
	}
	status, body := get(t, ts.URL+"/v1/traces")
	if status != http.StatusOK {
		t.Fatalf("trace list status %d", status)
	}
	var list tracesResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, tr := range list.Traces {
		ids = append(ids, tr.Trace)
	}
	if strings.Join(ids, ",") != "req-2,req-1" {
		t.Fatalf("stored traces %v, want [req-2 req-1]", ids)
	}
}

// TestResponseBytesUnchangedByTracing is the acceptance gate's byte-
// identity half: /v1/predict and /v1/query bodies are identical whether
// the request is traced or not, and identical across Parallelism 1 vs 4
// with tracing forced on.
func TestResponseBytesUnchangedByTracing(t *testing.T) {
	art, _, _ := exampleModel(t)
	predictURL := "/v1/predict?protein=p1&protein=p5&k=3"
	queryPlan := `{"group_by":"category","topk":2}`

	type variant struct {
		name        string
		parallelism int
		sample      int
		traced      bool
	}
	variants := []variant{
		{"untraced-p1", 1, -1, false},
		{"traced-p1", 1, -1, true},
		{"traced-p4", 4, -1, true},
		{"sampled-every-1", 1, 1, false},
	}
	var predictBodies, queryBodies [][]byte
	for _, v := range variants {
		s, err := New(reload(t, art), Config{
			Parallelism:      v.parallelism,
			TraceSampleEvery: v.sample,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())

		req, _ := http.NewRequest(http.MethodGet, ts.URL+predictURL, nil)
		if v.traced {
			req.Header.Set("X-Request-Id", "same-id-everywhere")
		}
		resp, body := do(t, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: predict status %d", v.name, resp.StatusCode)
		}
		predictBodies = append(predictBodies, body)

		qreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(queryPlan))
		if v.traced {
			qreq.Header.Set(obs.HeaderTraceSample, "1")
		}
		qresp, qbody := do(t, qreq)
		if qresp.StatusCode != http.StatusOK {
			t.Fatalf("%s: query status %d: %s", v.name, qresp.StatusCode, qbody)
		}
		queryBodies = append(queryBodies, qbody)
		ts.Close()
	}
	for i := 1; i < len(variants); i++ {
		if !bytes.Equal(predictBodies[0], predictBodies[i]) {
			t.Fatalf("predict bytes differ between %s and %s:\n%s\nvs\n%s",
				variants[0].name, variants[i].name, predictBodies[0], predictBodies[i])
		}
		if !bytes.Equal(queryBodies[0], queryBodies[i]) {
			t.Fatalf("query bytes differ between %s and %s:\n%s\nvs\n%s",
				variants[0].name, variants[i].name, queryBodies[0], queryBodies[i])
		}
	}
}

// TestQueryExplainOverHTTP: "explain": true adds the operator summary to
// the body; everything before it is byte-identical to the plain response.
func TestQueryExplainOverHTTP(t *testing.T) {
	_, ts := tracedServer(t, -1)
	post := func(plan string) []byte {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(plan))
		resp, body := do(t, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d: %s", resp.StatusCode, body)
		}
		return body
	}
	plain := post(`{"topk":2}`)
	explained := post(`{"topk":2,"explain":true}`)
	idx := bytes.Index(explained, []byte(`,"explain":`))
	if idx < 0 {
		t.Fatalf("no explain field in body:\n%s", explained)
	}
	if want := bytes.TrimSuffix(plain, []byte("}\n")); !bytes.Equal(explained[:idx], want) {
		t.Fatalf("explain perturbed rows:\n%s\nvs\n%s", want, explained[:idx])
	}
	var dec struct {
		Explain struct {
			WallUS int64 `json:"wall_us"`
			Ops    []struct {
				Op      string `json:"op"`
				RowsIn  int64  `json:"rows_in"`
				RowsOut int64  `json:"rows_out"`
			} `json:"operators"`
		} `json:"explain"`
	}
	if err := json.Unmarshal(explained, &dec); err != nil {
		t.Fatal(err)
	}
	if len(dec.Explain.Ops) == 0 {
		t.Fatalf("explain has no operators:\n%s", explained)
	}
}
