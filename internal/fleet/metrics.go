package fleet

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"

	"lamofinder/internal/obs"
	"lamofinder/internal/serve"
)

// Router-side routes, for the per-route latency histograms. Kept coarser
// than the daemon's: the router's own overhead is what these measure, the
// per-replica upstream histograms are a family of their own.
const (
	fleetRoutePredict = iota
	fleetRouteMotifs
	fleetRouteHealthz
	fleetRouteFleet
	fleetRouteMetrics
	fleetRouteRollout
	fleetRouteTraces
	fleetRouteOther
	numFleetRoutes
)

var fleetRouteNames = [numFleetRoutes]string{
	"predict", "motifs", "healthz", "fleet", "metrics", "rollout", "traces", "other",
}

func fleetRouteOf(path string) int {
	switch path {
	case "/v1/predict":
		return fleetRoutePredict
	case "/v1/motifs":
		return fleetRouteMotifs
	case "/v1/healthz":
		return fleetRouteHealthz
	case "/v1/fleet":
		return fleetRouteFleet
	case "/v1/metrics", "/metrics":
		return fleetRouteMetrics
	case "/v1/admin/rollout":
		return fleetRouteRollout
	case "/v1/traces":
		return fleetRouteTraces
	}
	if strings.HasPrefix(path, "/v1/traces/") {
		return fleetRouteTraces
	}
	return fleetRouteOther
}

// fleetMetrics holds the router's series, each declared once on reg,
// which renders both /metrics (under the lamod_fleet_* namespace) and the
// metric fields of /v1/metrics.
type fleetMetrics struct {
	reg       obs.Registry
	requests  *atomic.Int64 // client requests handled by the router
	errors    *atomic.Int64 // client responses with status >= 400
	retries   *atomic.Int64 // sequential retry attempts launched
	hedges    *atomic.Int64 // hedged duplicate requests launched
	hedgeWins *atomic.Int64 // requests won by the hedged attempt
	ejects    *atomic.Int64 // member transitions into Ejected
	readmits  *atomic.Int64 // ejected members readmitted
	rollouts  *atomic.Int64 // rolling artifact swaps completed
	upstream  *obs.Family   // upstream latency, slot i = members[i]
	lat       *obs.Family   // router-side latency, slot = route index
}

// declareMetrics declares the router's series and points each member's
// upstream histogram at its replica's slot. lamod_fleet_mixed_digest is the
// gauge the rollout smoke watches: 1 while live replicas disagree on the
// artifact digest, 0 once the fleet is uniform again.
func (rt *Router) declareMetrics() {
	m, r := &rt.met, &rt.met.reg
	m.requests = r.Counter("lamod_fleet_requests_total", "requests", "Client requests handled by the fleet router.")
	m.errors = r.Counter("lamod_fleet_errors_total", "errors", "Client responses with status >= 400.")
	m.retries = r.Counter("lamod_fleet_retries_total", "retries", "Upstream retry attempts launched.")
	m.hedges = r.Counter("lamod_fleet_hedges_total", "hedges", "Hedged duplicate upstream requests launched.")
	m.hedgeWins = r.Counter("lamod_fleet_hedge_wins_total", "hedge_wins", "Requests answered first by the hedged attempt.")
	m.ejects = r.Counter("lamod_fleet_ejects_total", "ejects", "Replica ejections after consecutive probe failures.")
	m.readmits = r.Counter("lamod_fleet_readmits_total", "readmits", "Ejected replicas readmitted after a successful probe.")
	m.rollouts = r.Counter("lamod_fleet_rollouts_total", "rollouts", "Rolling artifact swaps completed.")
	r.Func("gauge", "lamod_fleet_mixed_digest", "", "1 while live replicas serve more than one artifact digest, 0 when uniform.", func() int64 {
		if _, mixed := rt.mixedDigest(); mixed {
			return 1
		}
		return 0
	})
	r.Gauges("lamod_fleet_replica_up", "1 when the replica is routable (Ready), 0 otherwise.", []string{"replica"},
		func(emit func(int64, ...string)) {
			for _, mb := range rt.members {
				up := int64(0)
				if mb.routable() {
					up = 1
				}
				emit(up, mb.addr)
			}
		})
	r.Gauges("lamod_fleet_replica_digest_info", "Constant 1 per replica, labeled with its artifact digest.", []string{"replica", "digest"},
		func(emit func(int64, ...string)) {
			for _, mb := range rt.members {
				emit(1, mb.addr, mb.getDigest())
			}
		})
	m.upstream = r.Histograms("lamod_fleet_upstream_latency_seconds", "", "Upstream request latency per replica.", "replica", rt.ring.Members(), true)
	for i, mb := range rt.members {
		mb.lat = m.upstream.Hist(i)
	}
	m.lat = r.Histograms("lamod_fleet_route_latency_seconds", "latency", "Router-side request latency per route.", "route", fleetRouteNames[:], false)
}

// Snapshot decodes the router's /v1/metrics body. Fleet is always true so
// a client can tell a router from a daemon: daemon snapshots have no
// "fleet" key, which decodes as false. Upstream merges
// every replica's observed latency into one fleet-wide summary.
type Snapshot struct {
	Fleet       bool                          `json:"fleet"`
	Artifact    string                        `json:"artifact"`
	MixedDigest bool                          `json:"mixed_digest"`
	Requests    int64                         `json:"requests"`
	Errors      int64                         `json:"errors"`
	Retries     int64                         `json:"retries"`
	Hedges      int64                         `json:"hedges"`
	HedgeWins   int64                         `json:"hedge_wins"`
	Ejects      int64                         `json:"ejects"`
	Readmits    int64                         `json:"readmits"`
	Rollouts    int64                         `json:"rollouts"`
	Latency     map[string]obs.LatencySummary `json:"latency"`
	Upstream    obs.LatencySummary            `json:"upstream"`
	Replicas    []MemberStatus                `json:"replicas"`
}

// metricValues is the /v1/metrics body: the registry's keyed series plus
// the fleet fields that are not metrics.
func (rt *Router) metricValues() map[string]any {
	v := rt.met.reg.Values()
	v["fleet"] = true
	v["artifact"], v["mixed_digest"] = rt.mixedDigest()
	v["upstream"] = rt.met.upstream.Merged().Summary()
	v["replicas"] = rt.fleetStatus().Replicas
	return v
}

// Metrics returns the current /v1/metrics body, decoded.
func (rt *Router) Metrics() Snapshot {
	var s Snapshot
	// Both calls run over plain values the router just built; neither can
	// fail.
	b, _ := json.Marshal(rt.metricValues())
	_ = json.Unmarshal(b, &s)
	return s
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		serve.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	serve.WriteJSON(w, http.StatusOK, rt.metricValues())
}

// handleProm serves /metrics, the Prometheus rendering of the registry.
func (rt *Router) handleProm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		serve.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	_, _ = w.Write(rt.met.reg.Exposition(make([]byte, 0, 4096), false))
}
