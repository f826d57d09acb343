package serve

import (
	"net/http"
	"strconv"
	"strings"

	"lamofinder/internal/obs"
)

// Request tracing. Traces are created by the handlers themselves, not by
// the instrument middleware: sampling and trace identity are pure
// functions of the request headers, which reach every handler on the
// request's own goroutine, and only the handler knows its root span's
// name, so no per-request value has to pass through the mux.

// startTrace decides sampling for one request and, when selected, checks
// out a pooled trace whose root span is already open. Sampling is forced
// by a valid client X-Request-Id, an X-Trace-Sample: 1 header, or a
// propagated X-Trace-Context (the gateway already committed to the trace);
// otherwise the deterministic 1-in-N head sampler decides. Returns nil
// when unsampled — every obs recording method no-ops on nil, so callers
// never branch.
//
// The trace is stored under the propagated trace ID, or else under the
// X-Request-Id instrument put on the response (the client's valid ID, or
// the one instrument minted), so the client's header names the stored
// trace. This function does not allocate.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request, root string) *obs.Trace {
	forced := obs.ValidTraceID(r.Header.Get("X-Request-Id"))
	id := w.Header().Get("X-Request-Id")
	remoteParent := obs.NoSpan
	if tcID, parent, ok := obs.ParseTraceContext(r.Header.Get(obs.HeaderTraceContext)); ok {
		id, remoteParent, forced = tcID, parent, true
	}
	if !forced && r.Header.Get(obs.HeaderTraceSample) == "1" {
		forced = true
	}
	if !s.tracer.Sample(forced) {
		return nil
	}
	return s.tracer.Start(id, remoteParent, root)
}

// endTrace finishes a request trace and feeds the route's exemplar cell.
// The ID is captured before Finish — the trace is pooled and must not be
// read afterwards.
//
// alloc-budget: 0
func (s *Server) endTrace(tr *obs.Trace, route int) {
	if tr == nil {
		return
	}
	id := tr.ID()
	us := s.tracer.Finish(tr)
	s.met.lat.Exemplar(route).Set(id, us)
}

// tracesResponse is the body of GET /v1/traces.
type tracesResponse struct {
	Traces []obs.TraceSummary `json:"traces"`
}

// handleTraces serves the daemon's trace store.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if out, ok := ServeTraces(w, r, s.tracer.Store()); ok {
		WriteJSON(w, http.StatusOK, out)
	}
}

// ServeTraces answers what GET /v1/traces and GET /v1/traces/{id} share
// on the daemon and the gateway: it refuses other methods, writes the
// listing (newest first, optional ?n= cap), and 404s an ID the store does
// not hold. Only for a by-ID fetch that hits does it return ok, leaving
// the stored trace for the caller to write — the daemon as it is, the
// gateway merged with its replicas' traces. Admin-timescale endpoints —
// they allocate freely.
func ServeTraces(w http.ResponseWriter, r *http.Request, store *obs.TraceStore) (obs.TraceOut, bool) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return obs.TraceOut{}, false
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/traces")
	id = strings.TrimPrefix(id, "/")
	if id == "" {
		n := 0
		if raw := r.URL.Query().Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 0 {
				WriteError(w, http.StatusBadRequest, "n must be a non-negative integer, got %q", raw)
				return obs.TraceOut{}, false
			}
			n = v
		}
		WriteJSON(w, http.StatusOK, tracesResponse{Traces: store.List(n)})
		return obs.TraceOut{}, false
	}
	out, ok := store.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "no stored trace %q (the store keeps the most recent %d sampled traces)", id, store.Cap())
	}
	return out, ok
}
