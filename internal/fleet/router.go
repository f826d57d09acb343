package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"lamofinder/internal/obs"
	"lamofinder/internal/serve"
)

// Handler returns the router's HTTP handler on its own ServeMux (never
// the process-global one). There is no TimeoutHandler wrapper: upstream
// deadlines come from the pooled client, and the rollout endpoint
// legitimately runs for many seconds.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", rt.handlePredict)
	mux.HandleFunc("/v1/motifs", rt.handleMotifs)
	mux.HandleFunc("/v1/healthz", rt.handleHealthz)
	mux.HandleFunc("/v1/fleet", rt.handleFleet)
	mux.HandleFunc("/v1/metrics", rt.handleMetrics)
	mux.HandleFunc("/metrics", rt.handleProm)
	mux.HandleFunc("/v1/admin/rollout", rt.handleRollout)
	mux.HandleFunc("/v1/traces", rt.handleTraces)
	mux.HandleFunc("/v1/traces/", rt.handleTraces)
	return rt.instrument(mux)
}

// instrument wraps the mux with the router-side counters and per-route
// latency histograms. The router is not under the daemon's 0-alloc
// budget, so this stays plain and readable.
func (rt *Router) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		rt.met.requests.Add(1)
		if rec.status >= 400 {
			rt.met.errors.Add(1)
		}
		rt.met.lat.Hist(fleetRouteOf(r.URL.Path)).Record(time.Since(start))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// affinityKey extracts the routing key — the first protein named by the
// request — from a predict request. GET reads the first protein= query
// value; POST decodes the buffered JSON body. An empty key routes like
// any other key (it simply always hashes to the same replica).
func affinityKey(r *http.Request, body []byte) string {
	if r.Method == http.MethodPost {
		var req struct {
			Proteins []string `json:"proteins"`
		}
		if err := json.Unmarshal(body, &req); err == nil && len(req.Proteins) > 0 {
			return req.Proteins[0]
		}
		return ""
	}
	for raw := r.URL.RawQuery; raw != ""; {
		key, val, rest, ok := serve.NextQueryPair(raw)
		if ok && key == "protein" {
			return val
		}
		raw = rest
	}
	return ""
}

// upstreamResult is one proxied attempt's outcome, fully buffered so a
// failed or slow attempt can be discarded and retried without the client
// seeing a truncated body.
type upstreamResult struct {
	member      *member
	status      int
	contentType string
	requestID   string
	body        []byte
	err         error
	hedged      bool
}

// retryable reports whether another replica might answer this request
// successfully: transport errors and gateway-ish statuses are worth a
// retry, deterministic application responses (2xx, 4xx, 500) are not.
func (u *upstreamResult) retryable() bool {
	if u.err != nil {
		return true
	}
	switch u.status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// issue proxies one buffered request to one member and buffers the full
// response. Latency is recorded per member; transport failures count
// toward the member's eject streak unless the router itself canceled the
// attempt (a lost hedge race is not evidence the replica is sick).
//
// requestID is the gateway's ID for this request — minted once in the
// handler when the client supplied none, so every attempt (retry or
// hedge) carries the same ID and the access logs on gateway and replicas
// join on it. traceCtx, when non-empty, is the X-Trace-Context value
// binding the replica-side trace to this attempt's span in the gateway
// trace.
func (rt *Router) issue(ctx context.Context, m *member, method, uri string, body []byte, requestID, traceCtx string, hedged bool) *upstreamResult {
	res := &upstreamResult{member: m, hedged: hedged}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.addr+uri, rd)
	if err != nil {
		res.err = err
		return res
	}
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	if traceCtx != "" {
		req.Header.Set(obs.HeaderTraceContext, traceCtx)
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	m.inflight.Add(1)
	m.requests.Add(1)
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err == nil {
		res.status = resp.StatusCode
		res.contentType = resp.Header.Get("Content-Type")
		res.requestID = resp.Header.Get("X-Request-Id")
		res.body, err = io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
	}
	m.lat.Record(time.Since(start))
	m.inflight.Add(-1)
	if err != nil {
		res.err = err
		if !errors.Is(err, context.Canceled) {
			m.errors.Add(1)
			if m.noteFailure(time.Now(), rt.cfg.FailThreshold, rt.cfg.BackoffBase) {
				rt.met.ejects.Add(1)
				rt.cfg.Logger.Warn("fleet eject", obs.String("replica", m.addr), obs.String("cause", "transport"))
			}
		}
		return res
	}
	if res.retryable() {
		m.errors.Add(1)
	}
	return res
}

// candidates assembles the attempt order for a key: routable members in
// ring-preference order first, then — only as a last resort — the
// non-routable ones in the same order, so a fully ejected fleet still
// gets one best-effort attempt instead of an immediate 502.
func (rt *Router) candidates(key string, scratch []int) []*member {
	order := rt.ring.Preference(key, scratch[:0])
	out := make([]*member, 0, len(order))
	for _, i := range order {
		if rt.members[i].routable() {
			out = append(out, rt.members[i])
		}
	}
	for _, i := range order {
		if !rt.members[i].routable() {
			out = append(out, rt.members[i])
		}
	}
	return out
}

// attemptState tracks one launched upstream attempt for span attribution:
// the route loop owns the trace, so spans open here when the attempt
// launches, close when its result arrives, and are marked canceled when
// another attempt wins first.
type attemptState struct {
	m    *member
	span int32
	done bool
}

// route proxies one predict request: primary attempt on the key's owner,
// a hedged duplicate on the next replica once the p99-derived delay
// expires, then sequential retries over the remaining candidates. The
// first non-retryable result wins; a lost hedge is canceled by the
// request context when the handler returns.
//
// With tr sampled, every attempt becomes a child span of the gateway
// trace — "attempt" or "hedge", detail = replica address — and each
// outbound request carries X-Trace-Context naming its own span, so the
// replica's trace nests under the exact attempt that caused it. All span
// mutation happens on this goroutine (the trace's single-writer
// contract); the issue goroutines never touch tr.
func (rt *Router) route(ctx context.Context, candidates []*member, method, uri string, body []byte, requestID string, tr *obs.Trace) *upstreamResult {
	maxAttempts := rt.cfg.MaxAttempts
	if maxAttempts > len(candidates) {
		maxAttempts = len(candidates)
	}
	resc := make(chan *upstreamResult, maxAttempts+1) // buffered: losers never block
	inFlight, next := 0, 0
	var attempts []attemptState
	launch := func(hedged bool) {
		m := candidates[next]
		next++
		inFlight++
		name := "attempt"
		if hedged {
			name = "hedge"
		}
		si := tr.StartSpan(tr.Root(), name)
		tr.SetDetail(si, m.addr)
		traceCtx := ""
		if tr != nil && si != obs.NoSpan {
			traceCtx = obs.FormatTraceContext(tr.ID(), si)
		}
		attempts = append(attempts, attemptState{m: m, span: si})
		go func() { resc <- rt.issue(ctx, m, method, uri, body, requestID, traceCtx, hedged) }()
	}
	// settle closes the span of one returned attempt and logs the attempt
	// line that joins the gateway access log to the replica's.
	settle := func(res *upstreamResult) {
		for i := range attempts {
			a := &attempts[i]
			if a.done || a.m != res.member {
				continue
			}
			a.done = true
			tr.EndSpan(a.span)
			break
		}
		status := int64(res.status)
		if res.err != nil {
			status = -1
		}
		rt.cfg.Logger.Info("upstream attempt",
			obs.String("trace", requestID),
			obs.String("replica", res.member.addr),
			obs.Int64("status", status))
	}
	// cancelLosers marks every still-open attempt span canceled at
	// winner-decision time, so the trace shows when — and why — the race
	// ended for the loser.
	cancelLosers := func() {
		for i := range attempts {
			a := &attempts[i]
			if a.done {
				continue
			}
			tr.SetDetail(a.span, a.m.addr+" canceled: lost race")
			tr.EndSpan(a.span)
		}
	}
	launch(false)

	hedge := rt.hedgeDelay()
	var hedgeC <-chan time.Time
	if hedge >= 0 && next < len(candidates) {
		timer := time.NewTimer(hedge)
		defer timer.Stop()
		hedgeC = timer.C
	}
	var lastFail *upstreamResult
	for inFlight > 0 {
		select {
		case res := <-resc:
			inFlight--
			settle(res)
			if !res.retryable() {
				if res.hedged {
					rt.met.hedgeWins.Add(1)
				}
				cancelLosers()
				return res
			}
			lastFail = res
			// Sequential retry on the next candidate, bounded by
			// maxAttempts non-hedged launches in total.
			if next < len(candidates) && next < maxAttempts {
				rt.met.retries.Add(1)
				launch(false)
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(candidates) {
				rt.met.hedges.Add(1)
				launch(true)
			}
		}
	}
	return lastFail
}

func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		serve.WriteError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	var body []byte
	if r.Method == http.MethodPost {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxBody))
		if err != nil {
			serve.WriteError(w, serve.BodyStatus(err), "read body: %v", err)
			return
		}
	}
	var scratch [maxReplicas]int
	cands := rt.candidates(affinityKey(r, body), scratch[:])
	if len(cands) == 0 {
		serve.WriteError(w, http.StatusServiceUnavailable, "no replicas configured")
		return
	}
	id, tr := rt.startTrace(r, "predict")
	res := rt.route(r.Context(), cands, r.Method, r.URL.RequestURI(), body, id, tr)
	// Finish before relaying: the trace is queryable the moment the client
	// has the response (the root span measures routing, not the client
	// write, which is the half the gateway actually controls).
	rt.tracer.Finish(tr)
	rt.relay(w, res, id)
}

// handleMotifs proxies to the first available replica: the motif list is
// identical on every replica serving the same artifact, so affinity does
// not matter, only availability.
func (rt *Router) handleMotifs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		serve.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	var scratch [maxReplicas]int
	cands := rt.candidates("", scratch[:])
	if len(cands) == 0 {
		serve.WriteError(w, http.StatusServiceUnavailable, "no replicas configured")
		return
	}
	id, tr := rt.startTrace(r, "motifs")
	res := rt.route(r.Context(), cands, r.Method, r.URL.RequestURI(), nil, id, tr)
	rt.tracer.Finish(tr)
	rt.relay(w, res, id)
}

// relay writes a routed result to the client; an exhausted retry budget
// becomes one 502 with the last upstream failure attached. The echoed
// X-Request-Id is the gateway's own ID — minted once per request, shared
// by every attempt — never a replica's, so the client's ticket always
// matches the gateway trace and every replica-side log line.
func (rt *Router) relay(w http.ResponseWriter, res *upstreamResult, id string) {
	if id != "" {
		w.Header().Set("X-Request-Id", id)
	}
	if res == nil {
		serve.WriteError(w, http.StatusBadGateway, "no replica available")
		return
	}
	if res.err != nil {
		serve.WriteError(w, http.StatusBadGateway, "replica %s: %v", res.member.addr, res.err)
		return
	}
	if res.retryable() {
		serve.WriteError(w, http.StatusBadGateway, "replica %s: status %d", res.member.addr, res.status)
		return
	}
	h := w.Header()
	if res.contentType != "" {
		h.Set("Content-Type", res.contentType)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// fleetHealthz is the router's /v1/healthz body: liveness of the fleet as
// a whole. Artifact is the uniform digest when every live replica agrees;
// it is empty while the fleet is mixed mid-rollout.
type fleetHealthz struct {
	Status      string `json:"status"`
	Ready       int    `json:"ready"`
	Total       int    `json:"total"`
	Artifact    string `json:"artifact"`
	MixedDigest bool   `json:"mixed_digest"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		serve.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	ready := 0
	for _, m := range rt.members {
		if m.routable() {
			ready++
		}
	}
	uniform, mixed := rt.mixedDigest()
	hz := fleetHealthz{
		Status:      "ok",
		Ready:       ready,
		Total:       len(rt.members),
		Artifact:    uniform,
		MixedDigest: mixed,
	}
	status := http.StatusOK
	if ready == 0 {
		hz.Status = "unavailable"
		status = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, status, hz)
}

// FleetStatus is the body of /v1/fleet: the membership table plus the
// fleet-wide digest view.
type FleetStatus struct {
	Artifact    string         `json:"artifact"`
	MixedDigest bool           `json:"mixed_digest"`
	Replicas    []MemberStatus `json:"replicas"`
}

func (rt *Router) fleetStatus() FleetStatus {
	uniform, mixed := rt.mixedDigest()
	fs := FleetStatus{Artifact: uniform, MixedDigest: mixed, Replicas: make([]MemberStatus, len(rt.members))}
	for i, m := range rt.members {
		// members is sorted by address (ring order), so the table is
		// deterministic for a given fleet state.
		fs.Replicas[i] = m.status()
	}
	return fs
}

func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		serve.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	serve.WriteJSON(w, http.StatusOK, rt.fleetStatus())
}

// getJSON GETs url within ctx and decodes the JSON body into v.
func (rt *Router) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}
