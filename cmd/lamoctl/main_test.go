package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"lamofinder/internal/artifact"
	"lamofinder/internal/dataset"
	"lamofinder/internal/label"
	"lamofinder/internal/obs"
	"lamofinder/internal/predict"
	"lamofinder/internal/serve"
)

// exampleArtifact builds the indexed serving artifact of the paper's
// worked example: the Figure-2 motif labeled over the Figure-3 network,
// one prediction category per GO term.
func exampleArtifact(t *testing.T) *artifact.Artifact {
	t.Helper()
	pe := dataset.NewPaperExample()
	o := pe.Ontology
	l := label.NewLabelerWithCounts(pe.Corpus, pe.Direct, label.Config{Sigma: 2, MinDirect: 30})
	motifs := l.LabelMotif(pe.Motif)
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
	art, err := artifact.Build("paper-example", "lamoctl test fixture",
		task, names, pe.Corpus, pe.Direct, 30, motifs)
	if err != nil {
		t.Fatal(err)
	}
	art.BuildIndex(0)
	return art
}

// TestMetricsRatios runs metrics -ratios against a live daemon after a
// fixed sequence of predicts (four known proteins, one unknown): the
// counts and the error rate are exact, and the three predict percentiles
// are ordered histogram bucket bounds.
func TestMetricsRatios(t *testing.T) {
	s, err := serve.New(exampleArtifact(t), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, p := range []string{"p1", "p2", "p5", "p7", "nosuch"} {
		want := 0
		if p == "nosuch" {
			want = 1
		}
		var out, errb bytes.Buffer
		if code := run([]string{"predict", "-protein", p, "-server", ts.URL}, &out, &errb); code != want {
			t.Fatalf("predict %s: exit %d, want %d; stderr: %s", p, code, want, errb.String())
		}
	}

	var out, errb bytes.Buffer
	if code := run([]string{"metrics", "-ratios", "-server", ts.URL}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := map[string]string{}
	for _, f := range strings.Fields(out.String()) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			t.Fatalf("field %q is not key=value:\n%s", f, out.String())
		}
		got[k] = v
	}
	for k, want := range map[string]string{
		"requests": "5", "errors": "1", "error_rate": "0.200",
		"predictions": "4", "access_log_dropped": "0",
	} {
		if got[k] != want {
			t.Errorf("%s=%q, want %q:\n%s", k, got[k], want, out.String())
		}
	}
	prev := int64(0)
	for _, k := range []string{"predict_p50_us", "predict_p90_us", "predict_p99_us"} {
		v, err := strconv.ParseInt(got[k], 10, 64)
		if err != nil {
			t.Fatalf("%s=%q: %v\n%s", k, got[k], err, out.String())
		}
		bound := false
		for i := 0; i < obs.NumBuckets; i++ {
			bound = bound || obs.BucketBound(i) == v
		}
		if !bound || v < prev {
			t.Errorf("%s=%d is not a bucket bound at or above %d:\n%s", k, v, prev, out.String())
		}
		prev = v
	}
}

// TestTraceListTable renders GET /v1/traces as columns.
func TestTraceListTable(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/traces" || r.URL.Query().Get("n") != "2" {
			http.NotFound(w, r)
			return
		}
		_, _ = io.WriteString(w, `{"traces":[`+
			`{"trace":"req-9","root":"predict","spans":4,"dur_us":120},`+
			`{"trace":"gw-1","root":"probe-round","spans":3,"dropped_spans":1,"dur_us":88}]}`)
	}))
	defer ts.Close()

	var out, errb bytes.Buffer
	if code := run([]string{"trace", "-table", "-n", "2", "-server", ts.URL}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{"TRACE", "req-9", "predict", "probe-round"} {
		if !strings.Contains(got, want) {
			t.Fatalf("listing lacks %q:\n%s", want, got)
		}
	}
}

// TestTraceTableTree renders a gateway-merged trace as an indented span
// tree with the replica's spans spliced under the attempt that caused
// them.
func TestTraceTableTree(t *testing.T) {
	body := `{"trace":"req-7","spans":[` +
		`{"id":0,"parent":-1,"name":"predict","start_us":0,"dur_us":900},` +
		`{"id":1,"parent":0,"name":"attempt","detail":"http://slow canceled: lost race","start_us":10,"dur_us":500},` +
		`{"id":2,"parent":0,"name":"hedge","detail":"http://fast","start_us":300,"dur_us":200}],` +
		`"replicas":[{"replica":"http://fast","remote_parent":2,"spans":[` +
		`{"id":0,"parent":-1,"name":"predict","start_us":0,"dur_us":150},` +
		`{"id":1,"parent":0,"name":"rank","detail":"index","rows_in":1,"rows_out":1,"start_us":20,"dur_us":90}]}]}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/traces/req-7" {
			http.NotFound(w, r)
			return
		}
		_, _ = io.WriteString(w, body)
	}))
	defer ts.Close()

	var out, errb bytes.Buffer
	if code := run([]string{"trace", "req-7", "-table", "-server", ts.URL}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	if !strings.HasPrefix(got, "trace=req-7 spans=3\n") {
		t.Fatalf("header wrong:\n%s", got)
	}
	// The tree reads causally: hedge attempt, then the winning replica's
	// own spans nested one level deeper.
	hedge := strings.Index(got, "hedge")
	splice := strings.Index(got, "replica http://fast")
	rank := strings.Index(got, "rank")
	if hedge < 0 || splice < hedge || rank < splice {
		t.Fatalf("replica tree not spliced under the hedge span:\n%s", got)
	}
	if !strings.Contains(got, "canceled: lost race") {
		t.Fatalf("canceled attempt detail missing:\n%s", got)
	}
	if !strings.Contains(got, "1/1") {
		t.Fatalf("rows column missing for the rank span:\n%s", got)
	}
	// Indentation encodes depth: the replica's rank span sits three
	// levels in (root -> hedge -> replica -> spans -> rank's parent...).
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "rank") && !strings.HasPrefix(line, strings.Repeat("  ", 4)) {
			t.Fatalf("rank span not indented to depth 4: %q", line)
		}
	}
}

// TestQueryExplain sends "explain": true and prints the operator table.
func TestQueryExplain(t *testing.T) {
	var gotPlan struct {
		Explain bool `json:"explain"`
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query" {
			http.NotFound(w, r)
			return
		}
		if err := json.NewDecoder(r.Body).Decode(&gotPlan); err != nil {
			t.Errorf("decode plan: %v", err)
		}
		_, _ = io.WriteString(w, `{"artifact":"abc","columns":["protein"],"row_count":2,"rows":[["p1"],["p2"]],`+
			`"explain":{"wall_us":42,"operators":[`+
			`{"op":"scan","rows_in":20,"rows_out":20,"busy_us":30},`+
			`{"op":"filter","rows_in":20,"rows_out":2,"busy_us":5},`+
			`{"op":"emit","rows_in":2,"rows_out":2,"busy_us":3}]}}`)
	}))
	defer ts.Close()

	var out, errb bytes.Buffer
	if code := run([]string{"query", "-explain", "-server", ts.URL}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !gotPlan.Explain {
		t.Fatal("-explain did not set the plan's explain field")
	}
	got := out.String()
	if !strings.Contains(got, "artifact=abc rows=2 wall_us=42") {
		t.Fatalf("summary line wrong:\n%s", got)
	}
	for _, want := range []string{"OP", "ROWS_IN", "scan", "filter", "emit"} {
		if !strings.Contains(got, want) {
			t.Fatalf("operator table lacks %q:\n%s", want, got)
		}
	}
}

// TestQueryExplainRejectsTable: the two table renderings are mutually
// exclusive, and the error says so before any request is sent.
func TestQueryExplainRejectsTable(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"query", "-explain", "-table", "-server", "http://127.0.0.1:1"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (usage error)", code)
	}
	if !strings.Contains(errb.String(), "mutually exclusive") {
		t.Fatalf("error does not explain the conflict: %s", errb.String())
	}
}

// TestQueryExplainMissingField: a response without explain stats is an
// error, not silent empty output.
func TestQueryExplainMissingField(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{"artifact":"abc","columns":["protein"],"row_count":0,"rows":[]}`)
	}))
	defer ts.Close()
	var out, errb bytes.Buffer
	if code := run([]string{"query", "-explain", "-server", ts.URL}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "no explain stats") {
		t.Fatalf("error message wrong: %s", errb.String())
	}
}

// TestErrorStatusFails: the subcommands that decode a response exit 1 and
// name the status when the server answers with an error, instead of
// printing zeroed fields.
func TestErrorStatusFails(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, `{"error":"no replicas configured"}`+"\n")
	}))
	defer ts.Close()
	for _, args := range [][]string{
		{"metrics", "-ratios"},
		{"fleet", "-table"},
		{"health"},
	} {
		t.Run(args[0], func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(append(args, "-server", ts.URL), &out, &errb); code != 1 {
				t.Fatalf("exit %d, want 1; stdout: %s", code, out.String())
			}
			if !strings.Contains(errb.String(), "503 Service Unavailable") {
				t.Fatalf("stderr does not name the status: %s", errb.String())
			}
		})
	}
}

// TestRequestErrorStatusFails: the subcommands that send their own
// request (a POST, or a GET with a request ID) exit 1 and name the status
// when the server answers with an error, like the GET-only ones above.
func TestRequestErrorStatusFails(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, `{"error":"draining"}`+"\n")
	}))
	defer ts.Close()
	for _, args := range [][]string{
		{"rollout", "-artifact", "model.lamoart"},
		{"query", "-topk", "3"},
		{"predict", "-protein", "p1", "-trace", "req-trace-1"},
	} {
		t.Run(args[0], func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(append(args, "-server", ts.URL), &out, &errb); code != 1 {
				t.Fatalf("exit %d, want 1; stdout: %s", code, out.String())
			}
			if !strings.Contains(errb.String(), "server returned 503 Service Unavailable") {
				t.Fatalf("stderr does not name the status: %s", errb.String())
			}
			if out.Len() != 0 {
				t.Fatalf("stdout not empty on error: %s", out.String())
			}
		})
	}
}
