package serve

import (
	"net/http"
	"runtime"
	"sync/atomic"

	"lamofinder/internal/obs"
	"lamofinder/internal/query"
)

// Route indices for per-route latency histograms. A fixed enum instead of
// a map keyed by path keeps the hot path free of map writes and the
// snapshot free of map iteration over anything non-deterministic.
const (
	routePredict = iota
	routeQuery   // the /v1/query bulk plan endpoint
	routeHealthz
	routeMotifs
	routeMetrics // the JSON /v1/metrics snapshot
	routeProm    // the Prometheus /metrics exposition
	routeReload  // the opt-in /v1/admin/reload artifact swap
	routeTraces  // the /v1/traces span-trace store
	routeOther
	numRoutes
)

// routeNames are the static route labels used in access logs and as the
// request-latency family's label values. Static strings so recording
// a request never allocates.
var routeNames = [numRoutes]string{"predict", "query", "healthz", "motifs", "metrics", "prom", "reload", "traces", "other"}

// routeOf classifies a request path.
func routeOf(path string) int {
	switch path {
	case "/v1/predict":
		return routePredict
	case "/v1/query":
		return routeQuery
	case "/v1/healthz":
		return routeHealthz
	case "/v1/motifs":
		return routeMotifs
	case "/v1/metrics":
		return routeMetrics
	case "/metrics":
		return routeProm
	case "/v1/admin/reload":
		return routeReload
	case "/v1/traces":
		return routeTraces
	default:
		if len(path) > len("/v1/traces/") && path[:len("/v1/traces/")] == "/v1/traces/" {
			return routeTraces
		}
		return routeOther
	}
}

// planKindIndex maps a plan kind to its histogram slot, following the
// fixed order of query.Kinds(): one latency histogram per plan shape, so a
// cheap pinned top-k cannot hide a slow full scan behind one blended
// percentile.
func planKindIndex(kind string) int {
	for i, k := range query.Kinds() {
		if k == kind {
			return i
		}
	}
	return 0
}

// metrics holds the daemon's series, each declared once on reg, which
// renders both /metrics and the metric fields of /v1/metrics. Handlers
// update the counters and histograms lock-free; a render is a
// point-in-time read, not a consistent cut, which is all a metrics
// endpoint needs.
type metrics struct {
	reg         obs.Registry
	requests    *atomic.Int64 // all HTTP requests
	errors      *atomic.Int64 // 4xx/5xx responses
	predictions *atomic.Int64 // proteins answered by /v1/predict
	queries     *atomic.Int64 // bulk plans executed via /v1/query
	queryRows   *atomic.Int64 // result rows streamed by /v1/query
	lat         *obs.Family   // request wall time, slot = route index
	planLat     *obs.Family   // /v1/query execute+stream time, slot = plan kind
}

// newMetrics declares the daemon's series in exposition order.
func newMetrics(access *obs.AccessLog) metrics {
	var m metrics
	r := &m.reg
	m.requests = r.Counter("lamod_requests_total", "requests", "HTTP requests handled.")
	m.errors = r.Counter("lamod_errors_total", "errors", "Responses with status >= 400.")
	m.predictions = r.Counter("lamod_predictions_total", "predictions", "Proteins scored across all predict requests.")
	m.queries = r.Counter("lamod_queries_total", "queries", "Bulk plans executed via /v1/query.")
	m.queryRows = r.Counter("lamod_query_rows_total", "query_rows", "Result rows streamed by /v1/query.")
	r.Func("counter", "lamod_access_log_dropped_total", "access_log_dropped", "Access-log records dropped because the ring was full.", access.Dropped)
	m.lat = r.Histograms("lamod_request_duration_seconds", "latency", "Request wall time by route.", "route", routeNames[:], false)
	m.planLat = r.Histograms("lamod_query_duration_seconds", "query_latency", "Bulk-plan execute+stream time by plan kind.", "plan", query.Kinds(), false)
	r.Func("gauge", "lamod_goroutines", "", "Live goroutines in the daemon process.", func() int64 {
		return int64(runtime.NumGoroutine())
	})
	r.Func("gauge", "lamod_heap_alloc_bytes", "", "Bytes of allocated heap objects.", func() int64 {
		return int64(memStats().HeapAlloc)
	})
	r.FloatFunc("counter", "lamod_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", func() float64 {
		return float64(memStats().PauseTotalNs) / 1e9
	})
	r.Func("counter", "lamod_gc_cycles_total", "", "Completed GC cycles.", func() int64 {
		return int64(memStats().NumGC)
	})
	return m
}

func memStats() *runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &ms
}

// MetricsSnapshot decodes the JSON body of /v1/metrics for clients such
// as lamoctl.
type MetricsSnapshot struct {
	Artifact         string                        `json:"artifact"`
	Requests         int64                         `json:"requests"`
	Predictions      int64                         `json:"predictions"`
	Errors           int64                         `json:"errors"`
	Queries          int64                         `json:"queries"`
	QueryRows        int64                         `json:"query_rows"`
	AccessLogDropped int64                         `json:"access_log_dropped"`
	Latency          map[string]obs.LatencySummary `json:"latency"`
	// QueryLatency breaks /v1/query down by plan kind (scan, topk,
	// group_topk), measuring execute+stream time rather than whole-request
	// wall time.
	QueryLatency map[string]obs.LatencySummary `json:"query_latency"`
}

// handleMetrics serves /v1/metrics: the registry's keyed series plus the
// served artifact's identity.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	v := s.met.reg.Values()
	v["artifact"] = s.mdl.Load().digest
	WriteJSON(w, http.StatusOK, v)
}

// handleProm serves /metrics, the Prometheus rendering of the registry.
// This endpoint is scraped at human timescales, so it allocates freely;
// only the predict path holds the zero-allocation budget.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	_, _ = w.Write(s.met.reg.Exposition(make([]byte, 0, 8192), s.cfg.PromExemplars))
}
