package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lamofinder/internal/artifact"
	"lamofinder/internal/benchfmt"
	"lamofinder/internal/dataset"
	"lamofinder/internal/label"
	"lamofinder/internal/predict"
	"lamofinder/internal/serve"
)

// fixture writes the paper-example artifact (indexed) to disk and serves
// it, returning the artifact path and the daemon's base URL.
func fixture(t *testing.T) (artPath, serverURL string) {
	t.Helper()
	pe := dataset.NewPaperExample()
	l := label.NewLabelerWithCounts(pe.Corpus, pe.Direct, label.Config{Sigma: 2, MinDirect: 30})
	motifs := l.LabelMotif(pe.Motif)
	task := predict.NewTask(pe.Network, pe.Ontology.NumTerms())
	for p := 0; p < pe.Network.N(); p++ {
		for _, tm := range pe.Corpus.Terms(p) {
			task.Functions[p] = append(task.Functions[p], int(tm))
		}
	}
	names := make([]string, pe.Ontology.NumTerms())
	for tm := range names {
		names[tm] = pe.Ontology.ID(tm)
	}
	art, err := artifact.Build("paper-example", "lamoload test", task, names,
		pe.Corpus, pe.Direct, 30, motifs)
	if err != nil {
		t.Fatal(err)
	}
	art.BuildIndex(2)
	artPath = filepath.Join(t.TempDir(), "model.lamoart")
	if err := art.SaveFile(artPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := artifact.LoadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(loaded, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return artPath, ts.URL
}

func TestClosedLoopRun(t *testing.T) {
	artPath, url := fixture(t)
	out := filepath.Join(t.TempDir(), "load.json")
	var stderr bytes.Buffer
	code := run([]string{
		"-artifact", artPath, "-server", url,
		"-n", "60", "-c", "3", "-batch", "2", "-k", "4", "-seed", "7",
		"-out", out,
	}, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap benchfmt.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"LoadPredict/p50", "LoadPredict/p90", "LoadPredict/p99", "LoadPredict/max",
		"LoadPredict/throughput",
		"LoadPredict/daemon_p50", "LoadPredict/daemon_p90", "LoadPredict/daemon_p99",
	}
	if len(snap.Results) != len(want) {
		t.Fatalf("results: %+v", snap.Results)
	}
	for i, r := range snap.Results {
		if r.Name != want[i] {
			t.Fatalf("result %d named %q, want %q", i, r.Name, want[i])
		}
		if r.Iterations != 60 || r.NsPerOp <= 0 {
			t.Fatalf("result %+v", r)
		}
	}
	// Percentiles are order statistics of one sorted sample.
	if !(snap.Results[0].NsPerOp <= snap.Results[1].NsPerOp &&
		snap.Results[1].NsPerOp <= snap.Results[2].NsPerOp &&
		snap.Results[2].NsPerOp <= snap.Results[3].NsPerOp) {
		t.Fatalf("percentiles out of order: %+v", snap.Results)
	}
}

// TestQueryWorkloadRun drives the bulk-plan workload end to end and
// checks the query_-prefixed result set, including the rows/sec
// reciprocal derived from the daemon-reported row counts.
func TestQueryWorkloadRun(t *testing.T) {
	artPath, url := fixture(t)
	out := filepath.Join(t.TempDir(), "query.json")
	var stderr bytes.Buffer
	code := run([]string{
		"-artifact", artPath, "-server", url, "-workload", "query",
		"-n", "40", "-c", "2", "-batch", "2", "-k", "3", "-seed", "11",
		"-out", out,
	}, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap benchfmt.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"LoadQuery/query_p50", "LoadQuery/query_p90", "LoadQuery/query_p99",
		"LoadQuery/query_max", "LoadQuery/query_throughput",
		"LoadQuery/query_ns_per_row",
		"LoadQuery/daemon_p50", "LoadQuery/daemon_p90", "LoadQuery/daemon_p99",
	}
	if len(snap.Results) != len(want) {
		t.Fatalf("results: %+v", snap.Results)
	}
	for i, r := range snap.Results {
		if r.Name != want[i] {
			t.Fatalf("result %d named %q, want %q", i, r.Name, want[i])
		}
		if r.Iterations <= 0 || r.NsPerOp <= 0 {
			t.Fatalf("result %+v", r)
		}
	}
	// query_ns_per_row iterates over rows, not requests, and 40 bulk plans
	// over the paper example must stream well over 40 rows.
	if rows := snap.Results[5].Iterations; rows <= 40 {
		t.Fatalf("query_ns_per_row counted %d rows", rows)
	}
	if !strings.Contains(stderr.String(), "rows/s") {
		t.Fatalf("stderr missing rows/s line: %s", stderr.String())
	}
}

func TestBadWorkloadRejected(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-artifact", "x", "-workload", "nope"}, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2: %s", code, stderr.String())
	}
}

func TestOpenLoopAndMerge(t *testing.T) {
	artPath, url := fixture(t)
	bench := filepath.Join(t.TempDir(), "BENCH_x.json")
	seedSnap := benchfmt.NewSnapshot("go test", []benchfmt.Result{
		{Name: "BenchmarkX", Procs: 1, Iterations: 1, NsPerOp: 1},
	})
	if err := seedSnap.WriteFile(bench); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	code := run([]string{
		"-artifact", artPath, "-server", url,
		"-n", "40", "-rate", "2000", "-seed", "3", "-name", "OpenLoop",
		"-merge-into", bench,
	}, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	var snap benchfmt.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Results) != 9 || snap.Results[0].Name != "BenchmarkX" || snap.Results[1].Name != "OpenLoop/p50" {
		t.Fatalf("merged results: %+v", snap.Results)
	}
	if snap.Results[6].Name != "OpenLoop/daemon_p50" || snap.Results[6].Iterations != 40 {
		t.Fatalf("daemon-side results missing or wrong: %+v", snap.Results[6])
	}
	if !strings.Contains(snap.Command, "go test; lamoload") {
		t.Fatalf("merged command: %q", snap.Command)
	}
}

// TestRequestStreamDeterministic: both workloads are pure functions of
// (names, n, batch, k, seed).
func TestRequestStreamDeterministic(t *testing.T) {
	names := []string{"p1", "p2", "needs escape+", "p4"}
	a := predictStream("http://h", names, 50, 2, 5, 9)
	b := predictStream("http://h", names, 50, 2, 5, 9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	c := predictStream("http://h", names, 50, 2, 5, 10)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
	for _, rq := range a {
		if rq.body != "" {
			t.Fatalf("predict request carries a POST body %q", rq.body)
		}
		if !strings.HasPrefix(rq.url, "http://h/v1/predict?protein=") || !strings.HasSuffix(rq.url, "&k=5") {
			t.Fatalf("malformed url %q", rq.url)
		}
		if strings.Count(rq.url, "protein=") != 2 {
			t.Fatalf("batch size wrong in %q", rq.url)
		}
	}
}

// TestQueryStreamDeterministic: the bulk workload is seeded the same way,
// every request targets /v1/query, and every body is a valid JSON plan.
func TestQueryStreamDeterministic(t *testing.T) {
	names := []string{"p1", "p2", `quote"me`, "p4"}
	a := queryStream("http://h", names, 60, 2, 5, 9)
	b := queryStream("http://h", names, 60, 2, 5, 9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	c := queryStream("http://h", names, 60, 2, 5, 10)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
	shapes := map[string]bool{}
	for _, rq := range a {
		if rq.url != "http://h/v1/query" {
			t.Fatalf("query url %q", rq.url)
		}
		var plan map[string]any
		if err := json.Unmarshal([]byte(rq.body), &plan); err != nil {
			t.Fatalf("plan %q is not JSON: %v", rq.body, err)
		}
		switch {
		case plan["group_by"] == "category":
			shapes["group"] = true
		case plan["filter"] != nil:
			shapes["filter"] = true
		default:
			shapes["scan"] = true
		}
	}
	if len(shapes) != 3 {
		t.Fatalf("60 seeded plans cover shapes %v, want all three", shapes)
	}
}

// TestParseRowCount pins the header scan doRequest uses to count rows.
func TestParseRowCount(t *testing.T) {
	head := `{"artifact":"abc","columns":["protein","score"],"row_count":1234,"rows":[`
	if got := parseRowCount([]byte(head)); got != 1234 {
		t.Fatalf("parseRowCount = %d, want 1234", got)
	}
	if got := parseRowCount([]byte(`{"rows":[`)); got != 0 {
		t.Fatalf("parseRowCount without field = %d, want 0", got)
	}
}

func TestDigestMismatchRefused(t *testing.T) {
	artPath, url := fixture(t)
	// A different artifact file than the daemon serves: note changes digest.
	pe := dataset.NewPaperExample()
	l := label.NewLabelerWithCounts(pe.Corpus, pe.Direct, label.Config{Sigma: 2, MinDirect: 30})
	motifs := l.LabelMotif(pe.Motif)
	task := predict.NewTask(pe.Network, pe.Ontology.NumTerms())
	names := make([]string, pe.Ontology.NumTerms())
	for tm := range names {
		names[tm] = pe.Ontology.ID(tm)
	}
	other, err := artifact.Build("paper-example", "different note", task, names,
		pe.Corpus, pe.Direct, 30, motifs)
	if err != nil {
		t.Fatal(err)
	}
	other.BuildIndex(0)
	otherPath := filepath.Join(t.TempDir(), "other.lamoart")
	if err := other.SaveFile(otherPath); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if code := run([]string{"-artifact", otherPath, "-server", url, "-n", "5"}, &stderr); code != 1 {
		t.Fatalf("mismatched artifact accepted (exit %d): %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "different artifact") {
		t.Fatalf("stderr: %s", stderr.String())
	}
	// Sanity: the matching artifact is accepted.
	var ok bytes.Buffer
	if code := run([]string{"-artifact", artPath, "-server", url, "-n", "5", "-out",
		filepath.Join(t.TempDir(), "o.json")}, &ok); code != 0 {
		t.Fatalf("matching artifact refused: %s", ok.String())
	}
}

func TestFlagValidation(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-n", "10"}, &stderr); code != 2 {
		t.Fatalf("missing -artifact: exit %d", code)
	}
	for _, bad := range [][]string{
		{"-artifact", "x", "-n", "0"},
		{"-artifact", "x", "-c", "0"},
		{"-artifact", "x", "-batch", "-1"},
		{"-artifact", "x", "-rate", "-3"},
		{"-artifact", "x", "extra"},
	} {
		if code := run(bad, &stderr); code != 2 {
			t.Fatalf("%v: exit %d, want 2", bad, code)
		}
	}
}
