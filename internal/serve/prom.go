package serve

import (
	"net/http"
	"runtime"

	"lamofinder/internal/obs"
)

// promRouteLabels are the pre-rendered route label pairs for the latency
// histograms, one per route index.
var promRouteLabels = [numRoutes]string{
	`route="predict"`, `route="query"`, `route="healthz"`, `route="motifs"`,
	`route="metrics"`, `route="prom"`, `route="reload"`, `route="traces"`,
	`route="other"`,
}

// promPlanLabels are the pre-rendered plan-kind label pairs for the
// /v1/query latency histograms, in query.Kinds() order.
var promPlanLabels = [numPlanKinds]string{
	`plan="scan"`, `plan="topk"`, `plan="group_topk"`,
}

var contentTypeProm = []string{"text/plain; version=0.0.4; charset=utf-8"}

// handleProm renders the daemon's state in Prometheus text exposition
// format: the JSON snapshot's counters, the per-route latency histograms
// with cumulative le buckets in seconds, and Go runtime gauges. This
// endpoint is scraped at human timescales, so it allocates freely; only
// the predict path holds the zero-allocation budget.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	buf := make([]byte, 0, 8192)

	buf = obs.AppendPromHeader(buf, "lamod_requests_total", "counter", "HTTP requests handled.")
	buf = obs.AppendPromInt(buf, "lamod_requests_total", "", s.met.requests.Load())
	buf = obs.AppendPromHeader(buf, "lamod_errors_total", "counter", "Responses with status >= 400.")
	buf = obs.AppendPromInt(buf, "lamod_errors_total", "", s.met.errors.Load())
	buf = obs.AppendPromHeader(buf, "lamod_predictions_total", "counter", "Proteins scored across all predict requests.")
	buf = obs.AppendPromInt(buf, "lamod_predictions_total", "", s.met.predictions.Load())
	buf = obs.AppendPromHeader(buf, "lamod_index_hits_total", "counter", "Proteins answered from the build-time score index.")
	buf = obs.AppendPromInt(buf, "lamod_index_hits_total", "", s.met.indexHits.Load())
	buf = obs.AppendPromHeader(buf, "lamod_queries_total", "counter", "Bulk plans executed via /v1/query.")
	buf = obs.AppendPromInt(buf, "lamod_queries_total", "", s.met.queries.Load())
	buf = obs.AppendPromHeader(buf, "lamod_query_rows_total", "counter", "Result rows streamed by /v1/query.")
	buf = obs.AppendPromInt(buf, "lamod_query_rows_total", "", s.met.queryRows.Load())
	buf = obs.AppendPromHeader(buf, "lamod_access_log_dropped_total", "counter", "Access-log records dropped because the ring was full.")
	buf = obs.AppendPromInt(buf, "lamod_access_log_dropped_total", "", s.access.Dropped())

	buf = obs.AppendPromHeader(buf, "lamod_request_duration_seconds", "histogram", "Request wall time by route.")
	for route := 0; route < numRoutes; route++ {
		hs := s.met.lat[route].Snapshot()
		if hs.Count == 0 {
			continue
		}
		if s.cfg.PromExemplars {
			buf = obs.AppendPromHistogramExemplar(buf, "lamod_request_duration_seconds", promRouteLabels[route], hs, &s.exRoute[route])
		} else {
			buf = obs.AppendPromHistogram(buf, "lamod_request_duration_seconds", promRouteLabels[route], hs)
		}
	}

	buf = obs.AppendPromHeader(buf, "lamod_query_duration_seconds", "histogram", "Bulk-plan execute+stream time by plan kind.")
	for kind := 0; kind < numPlanKinds; kind++ {
		hs := s.met.planLat[kind].Snapshot()
		if hs.Count == 0 {
			continue
		}
		if s.cfg.PromExemplars {
			buf = obs.AppendPromHistogramExemplar(buf, "lamod_query_duration_seconds", promPlanLabels[kind], hs, &s.exPlan[kind])
		} else {
			buf = obs.AppendPromHistogram(buf, "lamod_query_duration_seconds", promPlanLabels[kind], hs)
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	buf = obs.AppendPromHeader(buf, "lamod_goroutines", "gauge", "Live goroutines in the daemon process.")
	buf = obs.AppendPromInt(buf, "lamod_goroutines", "", int64(runtime.NumGoroutine()))
	buf = obs.AppendPromHeader(buf, "lamod_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.")
	buf = obs.AppendPromInt(buf, "lamod_heap_alloc_bytes", "", int64(ms.HeapAlloc))
	buf = obs.AppendPromHeader(buf, "lamod_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.")
	buf = obs.AppendPromFloat(buf, "lamod_gc_pause_seconds_total", "", float64(ms.PauseTotalNs)/1e9)
	buf = obs.AppendPromHeader(buf, "lamod_gc_cycles_total", "counter", "Completed GC cycles.")
	buf = obs.AppendPromInt(buf, "lamod_gc_cycles_total", "", int64(ms.NumGC))

	h := w.Header()
	h["Content-Type"] = contentTypeProm
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}
