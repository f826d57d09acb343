package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lamofinder/internal/obs"
)

// obsTestServer builds a server with full observability on — JSON access
// logs into buf, a fresh tracer minting req-1, req-2, ... — and returns it
// with its test listener.
func obsTestServer(t *testing.T, buf *lockedBuffer) (*Server, *httptest.Server) {
	t.Helper()
	art, _, _ := exampleModel(t)
	s, err := New(reload(t, art), Config{
		Logger: obs.NewLogger(buf, obs.LevelInfo),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getWithHeader(t *testing.T, url, traceID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceID != "" {
		req.Header.Set("X-Request-Id", traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestTraceIDEchoAndGeneration: valid client IDs are echoed verbatim,
// invalid or absent ones are replaced by the tracer's minted IDs, and
// every response carries exactly one X-Request-Id. "." and ".." are
// replaced too: path cleaning would redirect GET /v1/traces/{id} away from
// a trace stored under either.
func TestTraceIDEchoAndGeneration(t *testing.T) {
	var buf lockedBuffer
	_, ts := obsTestServer(t, &buf)
	url := ts.URL + "/v1/predict?protein=p1&k=3"

	resp := getWithHeader(t, url, "client-abc.1")
	if got := resp.Header.Get("X-Request-Id"); got != "client-abc.1" {
		t.Fatalf("valid client id not echoed: %q", got)
	}

	resp = getWithHeader(t, url, "")
	if got := resp.Header.Get("X-Request-Id"); got != "req-1" {
		t.Fatalf("generated id = %q, want req-1 from a fresh tracer", got)
	}

	resp = getWithHeader(t, url, "bad id with spaces")
	if got := resp.Header.Get("X-Request-Id"); got != "req-2" {
		t.Fatalf("invalid client id not replaced: %q", got)
	}

	for i, dots := range []string{".", ".."} {
		resp = getWithHeader(t, url, dots)
		if got, want := resp.Header.Get("X-Request-Id"), "req-"+strconv.Itoa(3+i); got != want {
			t.Fatalf("client id %q: response id %q, want minted %s", dots, got, want)
		}
	}
}

// TestAccessLogLines: each request produces one structured access line
// carrying its trace ID, route, status and duration, flushed by Close.
// Predict requests with a client X-Request-Id are force-sampled, so the
// trace store also holds one trace under each of their IDs.
func TestAccessLogLines(t *testing.T) {
	var buf lockedBuffer
	s, ts := obsTestServer(t, &buf)
	getWithHeader(t, ts.URL+"/v1/predict?protein=p1&k=3", "want-this-id")
	getWithHeader(t, ts.URL+"/v1/predict?protein=nonexistent", "want-err-id")
	getWithHeader(t, ts.URL+"/v1/healthz", "")
	s.Close()

	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	type logLine struct {
		Msg    string `json:"msg"`
		Trace  string `json:"trace"`
		Method string `json:"method"`
		Route  string `json:"route"`
		Status int    `json:"status"`
		DurUs  int64  `json:"dur_us"`
	}
	byTrace := map[string]logLine{}
	for _, line := range lines {
		var al logLine
		if err := json.Unmarshal([]byte(line), &al); err != nil {
			t.Fatalf("log line is not valid JSON: %v (%q)", err, line)
		}
		if al.Msg != "access" || al.Method != "GET" {
			t.Fatalf("unexpected log line: %+v", al)
		}
		byTrace[al.Trace] = al
	}
	if len(byTrace) != 3 {
		t.Fatalf("access log has %d request lines, want 3:\n%s", len(byTrace), out)
	}
	ok := byTrace["want-this-id"]
	if ok.Route != "predict" || ok.Status != http.StatusOK {
		t.Fatalf("predict access line wrong: %+v", ok)
	}
	bad := byTrace["want-err-id"]
	if bad.Status != http.StatusNotFound {
		t.Fatalf("error access line wrong: %+v", bad)
	}
	if hz := byTrace["req-1"]; hz.Route != "healthz" {
		t.Fatalf("healthz line missing or wrong: %+v", byTrace)
	}
	// Both predict requests carried valid client IDs, so both were force
	// sampled: the store holds each trace under its access line's ID.
	tr, found := s.tracer.Store().Get("want-this-id")
	if !found || tr.Spans[0].Name != "predict" || len(tr.Spans) < 3 {
		t.Fatalf("predict trace wrong: found=%v %+v", found, tr)
	}
	if _, found := s.tracer.Store().Get("want-err-id"); !found {
		t.Fatalf("error request missing its trace: %+v", s.tracer.Store().List(0))
	}
	if snapshot(t, s).AccessLogDropped != 0 {
		t.Fatal("unloaded server dropped access records")
	}
}

// promLine is the shape every non-comment exposition line must match —
// the same regex the e2e suite's TestServe enforces.
var promLine = regexp.MustCompile(`^[a-z_]+(\{[^}]*\})? [0-9.e+-]+$`)

// TestPromEndpoint: /metrics parses line-by-line, carries the counters
// and a non-empty predict histogram, and its histogram count matches the
// JSON snapshot's.
// TestWarnLevelServerSkipsAccessLog: a server whose logger drops Info
// lines never writes an access line, so it builds no ring and starts no
// drain goroutine, while /metrics still lists the drop counter, at 0. An
// info-level server, the control, does start one.
func TestWarnLevelServerSkipsAccessLog(t *testing.T) {
	// drains returns the access logs whose drain goroutine is running, by
	// the receiver address its stack frame shows. Servers of other tests
	// may have drains running or just ending, so the checks below follow
	// addresses rather than counts.
	drains := func() map[string]bool {
		buf := make([]byte, 1<<20)
		out := map[string]bool{}
		for _, line := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n") {
			if rest, ok := strings.CutPrefix(line, "lamofinder/internal/obs.(*AccessLog).drain("); ok {
				out[strings.TrimSuffix(rest, ")")] = true
			}
		}
		return out
	}
	info, err := New(indexedModel(t), Config{Logger: obs.NewLogger(io.Discard, obs.LevelInfo)})
	if err != nil {
		t.Fatal(err)
	}
	ring := fmt.Sprintf("%p", info.access)
	if info.access == nil || !drains()[ring] {
		t.Fatalf("info-level server runs no access-log drain (ring %s, drains %v)", ring, drains())
	}
	info.Close()
	// Close returns once the drain has flushed; its goroutine exits just after.
	for end := time.Now().Add(2 * time.Second); drains()[ring] && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	before := drains()
	s, err := New(indexedModel(t), Config{Logger: obs.NewLogger(io.Discard, obs.LevelWarn)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for d := range drains() {
		if !before[d] {
			t.Fatalf("warn-level server started an access-log drain (%s)", d)
		}
	}
	if s.access != nil {
		t.Fatal("warn-level server built an access-log ring")
	}
	ts := newHTTPTestServer(t, s)
	if status, body := get(t, ts.URL+"/v1/predict?protein=p1&k=3"); status != http.StatusOK {
		t.Fatalf("predict: status %d: %s", status, body)
	}
	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK || !strings.Contains(string(body), "\nlamod_access_log_dropped_total 0\n") {
		t.Fatalf("/metrics (status %d) does not list lamod_access_log_dropped_total 0:\n%s", status, body)
	}
}

func TestPromEndpoint(t *testing.T) {
	var buf lockedBuffer
	s, ts := obsTestServer(t, &buf)
	for i := 0; i < 3; i++ {
		getWithHeader(t, ts.URL+"/v1/predict?protein=p1&k=3", "")
	}
	resp := getWithHeader(t, ts.URL+"/metrics", "")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	sawBucket := false
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("exposition line does not parse: %q", line)
		}
		if strings.HasPrefix(line, `lamod_request_duration_seconds_bucket{route="predict",le="+Inf"}`) {
			sawBucket = true
			if strings.HasSuffix(line, " 0") {
				t.Fatalf("predict +Inf bucket is zero after requests: %q", line)
			}
		}
	}
	if !sawBucket {
		t.Fatalf("no predict histogram in exposition:\n%s", text)
	}
	for _, name := range []string{
		"lamod_requests_total", "lamod_errors_total", "lamod_goroutines",
		"lamod_heap_alloc_bytes", "lamod_gc_pause_seconds_total", "lamod_access_log_dropped_total",
	} {
		if !strings.Contains(text, "\n"+name+" ") && !strings.HasPrefix(text, name+" ") {
			t.Fatalf("exposition missing %s:\n%s", name, text)
		}
	}

	snap := snapshot(t, s)
	if lat, okRoute := snap.Latency["predict"]; !okRoute || lat.Count != 3 {
		t.Fatalf("JSON latency snapshot disagrees: %+v", snap.Latency)
	}
}

// TestMetricsJSONCompat: every pre-observability field of /v1/metrics is
// still present under its original key, the new fields are additive, and
// the two retired fields (index_hits, which always equalled predictions,
// and latency_micros_total, the sum of the latency map's sum_micros) are
// gone.
func TestMetricsJSONCompat(t *testing.T) {
	var buf lockedBuffer
	_, ts := obsTestServer(t, &buf)
	getWithHeader(t, ts.URL+"/v1/predict?protein=p1&k=3", "")
	resp := getWithHeader(t, ts.URL+"/v1/metrics", "")
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"requests", "predictions", "errors", "access_log_dropped", "latency",
	} {
		if _, okKey := raw[key]; !okKey {
			t.Fatalf("/v1/metrics lost field %q: %v", key, raw)
		}
	}
	for _, key := range []string{"index_hits", "latency_micros_total"} {
		if _, found := raw[key]; found {
			t.Fatalf("/v1/metrics still reports retired field %q: %v", key, raw)
		}
	}
	var lat map[string]obs.LatencySummary
	if err := json.Unmarshal(raw["latency"], &lat); err != nil {
		t.Fatal(err)
	}
	p, okLat := lat["predict"]
	if !okLat || p.Count != 1 || p.P50Micros <= 0 || p.P99Micros < p.P50Micros {
		t.Fatalf("predict route latency implausible: %+v", p)
	}
}

// TestLatencyJSONMatchesPromHistogram: both expositions render every
// latency family from the one registry declaration, so for each route and
// plan kind the JSON count and sum_micros equal the Prometheus _count and
// _sum, and both list the same label values.
func TestLatencyJSONMatchesPromHistogram(t *testing.T) {
	var buf lockedBuffer
	s, ts := obsTestServer(t, &buf)
	getWithHeader(t, ts.URL+"/v1/predict?protein=p1&k=3", "")
	getWithHeader(t, ts.URL+"/v1/healthz", "")
	if st, body := postQuery(t, ts.URL, `{"topk":2}`); st != http.StatusOK {
		t.Fatalf("query: status %d: %s", st, body)
	}
	snap := snapshot(t, s)
	if snap.Requests != 3 {
		t.Fatalf("requests = %d, want 3", snap.Requests)
	}
	rec := httptest.NewRecorder()
	s.handleProm(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	prom := rec.Body.String()
	for _, fam := range []struct {
		name, label string
		json        map[string]obs.LatencySummary
	}{
		{"lamod_request_duration_seconds", "route", snap.Latency},
		{"lamod_query_duration_seconds", "plan", snap.QueryLatency},
	} {
		if got := strings.Count(prom, fam.name+"_count{"); got != len(fam.json) {
			t.Fatalf("%s: %d Prometheus series, %d JSON entries: %v", fam.name, got, len(fam.json), fam.json)
		}
		for value, l := range fam.json {
			labels := "{" + fam.label + `="` + value + `"} `
			sum := strconv.FormatFloat(float64(l.SumMicros)/1e6, 'g', -1, 64)
			for _, want := range []string{
				fam.name + "_count" + labels + strconv.FormatInt(l.Count, 10) + "\n",
				fam.name + "_sum" + labels + sum + "\n",
			} {
				if !strings.Contains(prom, want) {
					t.Fatalf("JSON %s[%s] = %+v, but /metrics lacks %q:\n%s", fam.name, value, l, want, prom)
				}
			}
		}
	}
	if len(snap.Latency) != 3 || len(snap.QueryLatency) != 1 {
		t.Fatalf("latency %v, query_latency %v: want 3 routes and 1 plan kind", snap.Latency, snap.QueryLatency)
	}
}

// snapshot decodes the server's /v1/metrics body. It calls the handler
// directly, outside the instrumented chain, so reading the counters does
// not move them.
func snapshot(t testing.TB, s *Server) MetricsSnapshot {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var m MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("decode /v1/metrics: %v\n%s", err, rec.Body.Bytes())
	}
	return m
}

// lockedBuffer is a bytes.Buffer safe for the drain goroutine + test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
