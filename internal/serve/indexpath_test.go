package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"lamofinder/internal/artifact"
)

// indexedModel returns the paper-example artifact as a daemon loads it:
// indexed and round-tripped through its encoded form.
func indexedModel(t testing.TB) *artifact.Artifact {
	t.Helper()
	art, _, _ := exampleModel(t)
	return reload(t, art)
}

// TestIndexedBatchDeterministicAcrossParallelism: a batch request over
// the index returns identical bytes across runs and Parallelism settings
// (predictions never touch the worker pool, but the config must not
// change bytes either way).
func TestIndexedBatchDeterministicAcrossParallelism(t *testing.T) {
	art := indexedModel(t)
	query := "/v1/predict?protein=p1&protein=p5&protein=p13&k=5"
	var bodies [][]byte
	for _, parallelism := range []int{1, 4} {
		ts := newTestServer(t, art, Config{Parallelism: parallelism})
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

// TestIndexHitMetrics: every protein answered from the score index is
// counted once, and /metrics serves the same counters.
func TestIndexHitMetrics(t *testing.T) {
	s, err := New(indexedModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		if status, body := get(t, ts.URL+"/v1/predict?protein=p1&protein=p2&k=3"); status != http.StatusOK {
			t.Fatalf("predict %d: %d: %s", i, status, body)
		}
	}
	if p, r := s.met.predictions.Load(), s.met.requests.Load(); p != 4 || r != 2 {
		t.Fatalf("counters: predictions=%d requests=%d", p, r)
	}
	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d: %s", status, body)
	}
	for _, want := range []string{"\nlamod_predictions_total 4\n", "\nlamod_requests_total 2\n"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}
}

// TestPprofGating: the profiling endpoints exist only when opted in, and
// mount outside the deadlined chain.
func TestPprofGating(t *testing.T) {
	art := indexedModel(t)
	off := newTestServer(t, art, Config{})
	if status, _ := get(t, off.URL+"/debug/pprof/cmdline"); status != http.StatusNotFound {
		t.Fatalf("pprof reachable without opt-in: %d", status)
	}
	on := newTestServer(t, art, Config{EnablePprof: true})
	if status, body := get(t, on.URL+"/debug/pprof/cmdline"); status != http.StatusOK {
		t.Fatalf("pprof cmdline with opt-in: %d: %s", status, body)
	}
	// The API itself must still work through the pprof-bearing mux.
	if status, body := get(t, on.URL+"/v1/predict?protein=p1&k=2"); status != http.StatusOK {
		t.Fatalf("predict with pprof enabled: %d: %s", status, body)
	}
}
