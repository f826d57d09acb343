package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lamofinder/internal/obs"
)

// discardResponseWriter is the minimal ResponseWriter for measuring the
// handler itself: header storage is pre-allocated once and the body is
// dropped, so every allocation AllocsPerRun observes belongs to
// handlePredict, not to the test harness.
type discardResponseWriter struct{ h http.Header }

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardResponseWriter) WriteHeader(int)             {}

// deadlineResponseWriter is discardResponseWriter with the connection
// deadline setters net/http's own writer has, recording the last ones
// set, so the full handler chain arms its deadline as it does on a
// served connection.
type deadlineResponseWriter struct {
	discardResponseWriter
	read, write time.Time
}

func (w *deadlineResponseWriter) SetReadDeadline(t time.Time) error  { w.read = t; return nil }
func (w *deadlineResponseWriter) SetWriteDeadline(t time.Time) error { w.write = t; return nil }

// TestPredictHotPathAllocs is the tentpole's allocation budget: on an
// indexed artifact, a warmed-up GET /v1/predict must average under one
// allocation per request through handlePredict. (net/http's connection
// handling allocates on its own and is excluded; TestInstrumentedPredictAllocs
// covers the rest of the chain.)
func TestPredictHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime defeats sync.Pool reuse on purpose; the budget only holds in normal builds")
	}
	art := indexedModel(t)
	s, err := New(art, Config{})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/predict?protein=p1&protein=p5&protein=p13&k=5", nil)
	w := &discardResponseWriter{h: make(http.Header, 4)}
	// Warm the scratch pool to its high-water capacities.
	for i := 0; i < 8; i++ {
		s.handlePredict(w, req)
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.handlePredict(w, req)
	})
	if allocs >= 1 {
		t.Fatalf("index hot path averages %.2f allocs/op, want < 1", allocs)
	}
}

// TestInstrumentedPredictAllocs is the tentpole's acceptance gate: the
// whole handler chain s.Handler() returns — the mux, the request
// deadline, the FULL per-request observability layer (trace-ID echo,
// per-route latency histogram, access logging through the ring, and span
// tracing: a valid client X-Request-Id forces sampling, so every measured
// request records a full span tree, publishes it to the trace store, and
// pushes a trace summary) and the indexed predict handler — must hold an
// exact zero-allocation budget. AllocsPerRun counts mallocs across all
// goroutines, so the drain goroutine's log encoding is inside the budget
// too. Only net/http's connection handling is outside it.
func TestInstrumentedPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime defeats sync.Pool reuse on purpose; the budget only holds in normal builds")
	}
	art := indexedModel(t)
	s, err := New(art, Config{
		Logger: obs.NewLogger(io.Discard, obs.LevelInfo),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/predict?protein=p1&protein=p5&protein=p13&k=5", nil)
	req.Header.Set("X-Request-Id", "load-gen-7")
	w := &deadlineResponseWriter{discardResponseWriter: discardResponseWriter{h: make(http.Header, 4)}}
	for i := 0; i < 8; i++ {
		h.ServeHTTP(w, req)
	}
	allocs := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, req)
	})
	if allocs != 0 {
		t.Fatalf("instrumented predict chain averages %.2f allocs/op, want exactly 0", allocs)
	}
	if w.read.IsZero() || !w.read.Equal(w.write) {
		t.Fatalf("chain set read deadline %v and write deadline %v, want one non-zero deadline", w.read, w.write)
	}
	if s.met.lat.Hist(routePredict).Snapshot().Count == 0 {
		t.Fatal("predict histogram empty after instrumented runs")
	}
	// The gate must be measuring span recording, not a sampled-out no-op:
	// the forced trace has to be in the store with its full span tree.
	tr, ok := s.tracer.Store().Get("load-gen-7")
	if !ok {
		t.Fatal("forced-sample request left no stored trace — the alloc gate is not exercising span recording")
	}
	if len(tr.Spans) < 4 || tr.Spans[0].Name != "predict" {
		t.Fatalf("stored trace missing handler spans: %+v", tr.Spans)
	}
}

// BenchmarkHandlerPredictInstrumented is the instrumented twin of
// BenchmarkHandlerPredictIndexed: same request, but through the whole
// handler chain with access logging on.
func BenchmarkHandlerPredictInstrumented(b *testing.B) {
	art := indexedModel(b)
	s, err := New(art, Config{
		Logger: obs.NewLogger(io.Discard, obs.LevelInfo),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/predict?protein=p1&protein=p5&protein=p13&k=5", nil)
	req.Header.Set("X-Request-Id", "bench-1")
	w := &deadlineResponseWriter{discardResponseWriter: discardResponseWriter{h: make(http.Header, 4)}}
	h.ServeHTTP(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// BenchmarkHandlerPredictIndexed measures the handler over the score
// index; make alloc gates its allocs/op through TestPredictHotPathAllocs.
func BenchmarkHandlerPredictIndexed(b *testing.B) {
	art := indexedModel(b)
	s, err := New(art, Config{})
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/predict?protein=p1&protein=p5&protein=p13&k=5", nil)
	w := &discardResponseWriter{h: make(http.Header, 4)}
	s.handlePredict(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handlePredict(w, req)
	}
}

// BenchmarkServerPredictE2E goes through the full stack — instrumented
// mux, connection deadlines, loopback TCP — so the hot-path numbers above can
// be read against what a client actually observes.
func BenchmarkServerPredictE2E(b *testing.B) {
	art := indexedModel(b)
	ts := newTestServer(b, art, Config{})
	client := ts.Client()
	url := ts.URL + "/v1/predict?protein=p1&protein=p5&protein=p13&k=5"
	buf := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				break
			}
		}
		if err := resp.Body.Close(); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
