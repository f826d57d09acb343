package fleet

import (
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
	case "/metrics":
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
// which renders /metrics under the lamod_fleet_* namespace.
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
	m.requests = r.Counter("lamod_fleet_requests_total", "Client requests handled by the fleet router.")
	m.errors = r.Counter("lamod_fleet_errors_total", "Client responses with status >= 400.")
	m.retries = r.Counter("lamod_fleet_retries_total", "Upstream retry attempts launched.")
	m.hedges = r.Counter("lamod_fleet_hedges_total", "Hedged duplicate upstream requests launched.")
	m.hedgeWins = r.Counter("lamod_fleet_hedge_wins_total", "Requests answered first by the hedged attempt.")
	m.ejects = r.Counter("lamod_fleet_ejects_total", "Replica ejections after consecutive probe failures.")
	m.readmits = r.Counter("lamod_fleet_readmits_total", "Ejected replicas readmitted after a successful probe.")
	m.rollouts = r.Counter("lamod_fleet_rollouts_total", "Rolling artifact swaps completed.")
	r.Func("gauge", "lamod_fleet_mixed_digest", "1 while live replicas serve more than one artifact digest, 0 when uniform.", func() int64 {
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
	m.upstream = r.Histograms("lamod_fleet_upstream_latency_seconds", "Upstream request latency per replica.", "replica", rt.ring.Members(), true)
	for i, mb := range rt.members {
		mb.lat = m.upstream.Hist(i)
	}
	m.lat = r.Histograms("lamod_fleet_route_latency_seconds", "Router-side request latency per route.", "route", fleetRouteNames[:], false)
}

// Snapshot is the router's state at one read: its counters, the uniform
// artifact digest, router-side latency per route with samples, every
// replica's observed latency merged into one summary, and the membership
// table. Fleet is always true.
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

// Metrics reads the router's counters and histograms into a Snapshot.
func (rt *Router) Metrics() Snapshot {
	m := &rt.met
	lat := make(map[string]obs.LatencySummary)
	for i, route := range fleetRouteNames {
		if hs := m.lat.Hist(i).Snapshot(); hs.Count > 0 {
			lat[route] = hs.Summary()
		}
	}
	fs := rt.fleetStatus()
	return Snapshot{
		Fleet:       true,
		Artifact:    fs.Artifact,
		MixedDigest: fs.MixedDigest,
		Requests:    m.requests.Load(),
		Errors:      m.errors.Load(),
		Retries:     m.retries.Load(),
		Hedges:      m.hedges.Load(),
		HedgeWins:   m.hedgeWins.Load(),
		Ejects:      m.ejects.Load(),
		Readmits:    m.readmits.Load(),
		Rollouts:    m.rollouts.Load(),
		Latency:     lat,
		Upstream:    m.upstream.Merged().Summary(),
		Replicas:    fs.Replicas,
	}
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
