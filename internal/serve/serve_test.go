package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lamofinder/internal/artifact"
	"lamofinder/internal/dataset"
	"lamofinder/internal/label"
	"lamofinder/internal/predict"
)

// exampleModel builds the indexed serving artifact for the paper's worked
// example (Figures 1-3): the Figure-2 motif labeled over the Figure-3
// network, with a GO-term-granularity prediction task exactly as in the
// Figure-8 experiment. It returns the offline task and motifs alongside,
// so tests can cross-check served responses against the offline scoring
// path.
func exampleModel(t testing.TB) (*artifact.Artifact, *predict.Task, []*label.LabeledMotif) {
	t.Helper()
	pe := dataset.NewPaperExample()
	o := pe.Ontology
	l := label.NewLabelerWithCounts(pe.Corpus, pe.Direct, label.Config{Sigma: 2, MinDirect: 30})
	motifs := l.LabelMotif(pe.Motif)
	if len(motifs) == 0 {
		t.Fatal("paper example produced no labeled motifs")
	}
	task := predict.NewTask(pe.Network, o.NumTerms())
	for p := 0; p < pe.Network.N(); p++ {
		for _, tm := range pe.Corpus.Terms(p) {
			task.Functions[p] = append(task.Functions[p], int(tm))
		}
	}
	names := make([]string, o.NumTerms())
	for tm := range names {
		names[tm] = o.ID(tm)
	}
	art, err := artifact.Build("paper-example", "serve test fixture",
		task, names, pe.Corpus, pe.Direct, 30, motifs)
	if err != nil {
		t.Fatal(err)
	}
	art.BuildIndex(0)
	return art, task, motifs
}

// reload round-trips the artifact through its encoded form, so tests serve
// what a daemon would actually load from disk.
func reload(t testing.TB, art *artifact.Artifact) *artifact.Artifact {
	t.Helper()
	b, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := artifact.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func newTestServer(t testing.TB, art *artifact.Artifact, cfg Config) *httptest.Server {
	t.Helper()
	s, err := New(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url) //nolint — test client; the daemon itself never uses it
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestPredictDeterministicAcrossRunsAndParallelism is the satellite e2e
// gate: the same query must return byte-identical JSON across repeated
// requests, across server instances, and across Parallelism 1 vs 4.
func TestPredictDeterministicAcrossRunsAndParallelism(t *testing.T) {
	art, _, _ := exampleModel(t)
	query := "/v1/predict?protein=p1&protein=p5&protein=p13&k=5"
	var bodies [][]byte
	for _, parallelism := range []int{1, 4} {
		ts := newTestServer(t, reload(t, art), Config{Parallelism: parallelism})
		for run := 0; run < 2; run++ {
			status, body := get(t, ts.URL+query)
			if status != http.StatusOK {
				t.Fatalf("parallelism %d run %d: status %d: %s", parallelism, run, status, body)
			}
			bodies = append(bodies, body)
		}
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs:\n%s\nvs\n%s", i, bodies[0], bodies[i])
		}
	}
}

// TestPredictMatchesOfflineScorer pins the served numbers to the offline
// pipeline: for every protein, the daemon's response must exactly equal
// predict.TopK over the scorer the pipeline constructs — same constructor
// (label.NewScorer), same ranking, same floats.
func TestPredictMatchesOfflineScorer(t *testing.T) {
	art, task, motifs := exampleModel(t)
	offline := label.NewScorer(task, motifs)
	ts := newTestServer(t, reload(t, art), Config{})
	const k = 7
	for p := 0; p < task.Network.N(); p++ {
		name := task.Network.Name(p)
		status, body := get(t, fmt.Sprintf("%s/v1/predict?protein=%s&k=%d", ts.URL, name, k))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, status, body)
		}
		var resp PredictResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := predict.TopK(offline.Scores(p), k)
		got := resp.Results[0].Predictions
		if len(got) != len(want) {
			t.Fatalf("%s: served %d predictions, offline has %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].Function != want[i].Function || got[i].Score != want[i].Score {
				t.Fatalf("%s rank %d: served (%d, %v), offline (%d, %v)",
					name, i, got[i].Function, got[i].Score, want[i].Function, want[i].Score)
			}
			if got[i].Name != art.FunctionNames[want[i].Function] {
				t.Fatalf("%s rank %d: name %q, want %q", name, i, got[i].Name, art.FunctionNames[want[i].Function])
			}
		}
	}
}

// TestPredictIsGetOnly: a POST to /v1/predict is refused with a 405 that
// names GET, and /v1/metrics, the retired JSON exposition, is not found.
func TestPredictIsGetOnly(t *testing.T) {
	art, _, _ := exampleModel(t)
	ts := newTestServer(t, reload(t, art), Config{})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"proteins":["p1","p2"],"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed || string(body) != `{"error":"use GET"}`+"\n" {
		t.Fatalf("POST /v1/predict: %d %s, want 405 naming GET", resp.StatusCode, body)
	}
	if status, body := get(t, ts.URL+"/v1/metrics"); status != http.StatusNotFound {
		t.Fatalf("GET /v1/metrics: %d %s, want 404", status, body)
	}
}

func TestHealthzAndMotifs(t *testing.T) {
	art, _, motifs := exampleModel(t)
	// A vertex that carries no label must read [] in /v1/motifs.
	art.Motifs[0].Labels[1] = nil
	loaded := reload(t, art)
	ts := newTestServer(t, loaded, Config{})

	status, body := get(t, ts.URL+"/v1/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: %d: %s", status, body)
	}
	var hz map[string]any
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	digest, err := art.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" || hz["artifact"] != digest {
		t.Fatalf("healthz body: %s", body)
	}
	if int(hz["proteins"].(float64)) != 22 {
		t.Fatalf("healthz proteins: %s", body)
	}

	status, body = get(t, ts.URL+"/v1/motifs")
	if status != http.StatusOK {
		t.Fatalf("motifs: %d: %s", status, body)
	}
	var mr MotifsResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Motifs) != len(motifs) || mr.Artifact != digest {
		t.Fatalf("motifs body: %s", body)
	}
	if mr.Motifs[0].Size != 4 || mr.Motifs[0].Occurrences == 0 {
		t.Fatalf("motif summary: %+v", mr.Motifs[0])
	}
	// Each summary carries its motif's edges, the paper example's 4-cycle.
	for i, ms := range mr.Motifs {
		if ms.Pattern != motifs[i].Pattern.String() || ms.Pattern != "4:[0-1 0-3 1-2 2-3]" {
			t.Fatalf("motif %d pattern %q, want %q", i, ms.Pattern, motifs[i].Pattern.String())
		}
	}
	// Every vertex's labels are a JSON array, empty when it has none.
	if bytes.Contains(body, []byte("null")) || !bytes.Contains(body, []byte(`"labels":[["G02"],[],`)) {
		t.Fatalf("motifs labels: %s", body)
	}
}

// TestCacheAndMetrics: the score index is the daemon's only cache. Repeated
// requests for one protein are each answered from it with the same bytes,
// counted once per request, and /metrics carries none of the retired LRU
// and singleflight counters.
func TestCacheAndMetrics(t *testing.T) {
	art, _, _ := exampleModel(t)
	s, err := New(reload(t, art), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var first []byte
	for i := 0; i < 3; i++ {
		status, body := get(t, ts.URL+"/v1/predict?protein=p1&k=5")
		if status != http.StatusOK {
			t.Fatalf("predict %d: %d: %s", i, status, body)
		}
		if i == 0 {
			first = body
		} else if !bytes.Equal(first, body) {
			t.Fatalf("repeat %d differs:\n%s\nvs\n%s", i, first, body)
		}
	}
	if p, r := s.met.predictions.Load(), s.met.requests.Load(); p != 3 || r != 3 {
		t.Fatalf("counters: predictions=%d requests=%d", p, r)
	}

	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d: %s", status, body)
	}
	for _, k := range []string{"cache", "singleflight"} {
		if bytes.Contains(body, []byte(k)) {
			t.Errorf("/metrics still reports a %s series:\n%s", k, body)
		}
	}
}

func TestRequestErrors(t *testing.T) {
	art, _, _ := exampleModel(t)
	s, err := New(reload(t, art), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One protein more than the batch cap.
	overBatch := "/v1/predict?protein=p1" + strings.Repeat("&protein=p1", maxBatch)
	cases := []struct {
		url  string
		want int
	}{
		{"/v1/predict?protein=nosuchprotein", http.StatusNotFound},
		{"/v1/predict", http.StatusBadRequest},
		{"/v1/predict?protein=p1&k=notanumber", http.StatusBadRequest},
		{"/v1/predict?protein=p1&k=-2", http.StatusBadRequest},
		{overBatch, http.StatusBadRequest},
		{"/v1/nosuchendpoint", http.StatusNotFound},
	}
	for _, tc := range cases {
		status, body := get(t, ts.URL+tc.url)
		if status != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.url, status, tc.want, body)
		}
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE healthz: %d", resp.StatusCode)
	}
	if e := s.met.errors.Load(); e < int64(len(cases)) {
		t.Fatalf("error counter %d, want at least %d", e, len(cases))
	}
}

func TestGracefulShutdown(t *testing.T) {
	art, _, _ := exampleModel(t)
	s, err := New(reload(t, art), Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l, 2*time.Second) }()

	url := "http://" + l.Addr().String()
	status, _ := get(t, url+"/v1/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz before shutdown: %d", status)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after ctx cancel")
	}
	if _, err := http.Get(url + "/v1/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestRunClosesOnEarlyFailure: when serving fails before ctx ends — here
// on a listener that is already closed — Run still calls closeFn, so the
// daemon flushes its access log on that path too.
func TestRunClosesOnEarlyFailure(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	closed := 0
	err = Run(context.Background(), l, http.NotFoundHandler(), time.Second, func() { closed++ })
	if err == nil || closed != 1 {
		t.Fatalf("Run on a closed listener: err=%v, closeFn ran %d times, want an error and 1", err, closed)
	}
}

// TestOversizedBodyRejected: every route that decodes a request body
// refuses one over MaxBody with 413 and the route's usual error shape,
// while a body of exactly MaxBody bytes is still decoded.
func TestOversizedBodyRejected(t *testing.T) {
	s, err := New(indexedModel(t), Config{AllowReload: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// body is a JSON object padded to n bytes with an ignored field.
	body := func(n int) string {
		const open, close = `{"pad":"`, `"}`
		return open + strings.Repeat("a", n-len(open)-len(close)) + close
	}
	for _, tc := range []struct {
		route     string
		wantField string // "" for the plain {"error": ...} shape
	}{
		{"/v1/query", "body"},
		{"/v1/admin/reload", ""},
	} {
		status, resp := post(t, ts.URL+tc.route, body(MaxBody+1))
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body got status %d: %s", tc.route, status, resp)
		}
		var fe fieldErrorResponse
		if err := json.Unmarshal(resp, &fe); err != nil || !strings.Contains(fe.Error, "too large") || fe.Field != tc.wantField {
			t.Fatalf("%s: error body %s (%v)", tc.route, resp, err)
		}
		if status, resp := post(t, ts.URL+tc.route, body(MaxBody)); status == http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: body at the cap refused: %s", tc.route, resp)
		}
	}
}
