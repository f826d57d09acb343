package serve

import (
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

// routeNames are the static route labels used in access logs, the JSON
// latency map and the Prometheus route label. Static strings so recording
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

// numPlanKinds mirrors len(query.Kinds()): one latency histogram per plan
// shape, so a cheap pinned top-k cannot hide a slow full scan behind one
// blended percentile.
const numPlanKinds = 3

// planKindIndex maps a plan kind to its histogram slot, following the
// fixed order of query.Kinds().
func planKindIndex(kind string) int {
	for i, k := range planKindNames() {
		if k == kind {
			return i
		}
	}
	return 0
}

func planKindNames() []string { return query.Kinds() }

// metrics holds the daemon's monotonic counters and per-route latency
// histograms. Everything is atomic so handlers update them without locks;
// Snapshot is a point-in-time read, not a consistent cut, which is all a
// metrics endpoint needs.
type metrics struct {
	requests    atomic.Int64                // all HTTP requests
	predictions atomic.Int64                // proteins answered by /v1/predict
	errors      atomic.Int64                // 4xx/5xx responses
	indexHits   atomic.Int64                // proteins answered from the score index
	queries     atomic.Int64                // bulk plans executed via /v1/query
	queryRows   atomic.Int64                // result rows streamed by /v1/query
	lat         [numRoutes]obs.Histogram    // per-route request wall time
	planLat     [numPlanKinds]obs.Histogram // /v1/query execute+stream time by plan kind
}

// RouteLatency is one route's latency summary inside MetricsSnapshot:
// exact count and sum plus percentiles derived from the power-of-two
// bucket histogram (each reported value is the upper bound of the bucket
// holding the nearest-rank sample).
type RouteLatency struct {
	Count     int64 `json:"count"`
	SumMicros int64 `json:"sum_micros"`
	P50Micros int64 `json:"p50_micros"`
	P90Micros int64 `json:"p90_micros"`
	P99Micros int64 `json:"p99_micros"`
}

// MetricsSnapshot is the JSON body of /v1/metrics. The pre-histogram
// fields still present keep their names and meaning (LatencyMicros is
// now the sum over every route histogram), so scrapers of those keep
// working; Latency and AccessLogDropped are additive. encoding/json emits map keys sorted, so
// the body stays byte-deterministic for a given counter state.
type MetricsSnapshot struct {
	Artifact         string                  `json:"artifact"`
	Requests         int64                   `json:"requests"`
	Predictions      int64                   `json:"predictions"`
	Errors           int64                   `json:"errors"`
	IndexHits        int64                   `json:"index_hits"`
	Queries          int64                   `json:"queries"`
	QueryRows        int64                   `json:"query_rows"`
	LatencyMicros    int64                   `json:"latency_micros_total"`
	AccessLogDropped int64                   `json:"access_log_dropped"`
	Latency          map[string]RouteLatency `json:"latency"`
	// QueryLatency breaks /v1/query down by plan kind (scan, topk,
	// group_topk), measuring execute+stream time rather than whole-request
	// wall time; additive, so existing scrapers keep working.
	QueryLatency map[string]RouteLatency `json:"query_latency"`
}

func (m *metrics) snapshot(digest string, accessDropped int64) MetricsSnapshot {
	s := MetricsSnapshot{
		Artifact:         digest,
		Requests:         m.requests.Load(),
		Predictions:      m.predictions.Load(),
		Errors:           m.errors.Load(),
		IndexHits:        m.indexHits.Load(),
		Queries:          m.queries.Load(),
		QueryRows:        m.queryRows.Load(),
		AccessLogDropped: accessDropped,
		Latency:          make(map[string]RouteLatency, numRoutes),
		QueryLatency:     make(map[string]RouteLatency, numPlanKinds),
	}
	for r := 0; r < numRoutes; r++ {
		hs := m.lat[r].Snapshot()
		s.LatencyMicros += hs.SumMicros
		if hs.Count == 0 {
			continue
		}
		s.Latency[routeNames[r]] = RouteLatency{
			Count:     hs.Count,
			SumMicros: hs.SumMicros,
			P50Micros: hs.Quantile(0.50),
			P90Micros: hs.Quantile(0.90),
			P99Micros: hs.Quantile(0.99),
		}
	}
	for i, kind := range planKindNames() {
		hs := m.planLat[i].Snapshot()
		if hs.Count == 0 {
			continue
		}
		s.QueryLatency[kind] = RouteLatency{
			Count:     hs.Count,
			SumMicros: hs.SumMicros,
			P50Micros: hs.Quantile(0.50),
			P90Micros: hs.Quantile(0.90),
			P99Micros: hs.Quantile(0.99),
		}
	}
	return s
}
