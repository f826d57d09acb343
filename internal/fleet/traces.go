package fleet

import (
	"context"
	"net/http"

	"lamofinder/internal/obs"
	"lamofinder/internal/serve"
)

// startTrace mints (or adopts) the gateway's request ID and decides span
// sampling for one routed request. The ID is minted exactly once, here —
// every retry and hedge attempt reuses it, which is what lets the access
// logs on the gateway and all touched replicas join on one key instead of
// each replica minting its own fragment. Sampling is forced by a valid
// client X-Request-Id or an X-Trace-Sample: 1 header; otherwise the
// deterministic head sampler decides. Returns a nil trace when unsampled
// (every obs method no-ops on nil).
func (rt *Router) startTrace(r *http.Request, root string) (string, *obs.Trace) {
	id := r.Header.Get("X-Request-Id")
	forced := obs.ValidTraceID(id)
	if !forced {
		id = rt.tracer.NextID()
	}
	if !forced && r.Header.Get(obs.HeaderTraceSample) == "1" {
		forced = true
	}
	if !rt.tracer.Sample(forced) {
		return id, nil
	}
	return id, rt.tracer.Start(id, obs.NoSpan, root)
}

// replicaTrace is one replica's contribution to a merged trace: the spans
// it recorded under the shared trace ID, plus the gateway span index they
// nest under (the attempt span propagated via X-Trace-Context).
type replicaTrace struct {
	Replica      string        `json:"replica"`
	RemoteParent int32         `json:"remote_parent"`
	Spans        []obs.SpanOut `json:"spans"`
}

// gatewayTrace is the body of the gateway's GET /v1/traces/{id}: the
// gateway's own span tree plus every replica-side tree recorded under the
// same ID, fetched live from each replica's trace store.
type gatewayTrace struct {
	Trace    string         `json:"trace"`
	Dropped  int32          `json:"dropped_spans,omitempty"`
	Spans    []obs.SpanOut  `json:"spans"`
	Replicas []replicaTrace `json:"replicas"`
}

// handleTraces serves the gateway's trace store through the daemon's
// serve.ServeTraces; fetching one trace by ID additionally asks every
// replica for its same-ID trace and merges the results, so one GET
// returns the whole cross-process tree: gateway routing spans, each
// attempt, and the replica handler/operator spans nested under the
// attempt that caused them. Replicas that never saw the request (or
// evicted the trace) are simply absent.
func (rt *Router) handleTraces(w http.ResponseWriter, r *http.Request) {
	out, ok := serve.ServeTraces(w, r, rt.tracer.Store())
	if !ok {
		return
	}
	merged := gatewayTrace{
		Trace:    out.Trace,
		Dropped:  out.Dropped,
		Spans:    out.Spans,
		Replicas: []replicaTrace{},
	}
	for _, m := range rt.members {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ProbeTimeout)
		var rto obs.TraceOut
		err := rt.getJSON(ctx, m.addr+"/v1/traces/"+out.Trace, &rto)
		cancel()
		if err != nil {
			continue
		}
		merged.Replicas = append(merged.Replicas, replicaTrace{
			Replica:      m.addr,
			RemoteParent: rto.RemoteParent,
			Spans:        rto.Spans,
		})
	}
	serve.WriteJSON(w, http.StatusOK, merged)
}
