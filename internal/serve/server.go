// Package serve implements the lamod prediction daemon: an HTTP JSON API
// over one read-only, checksummed model artifact. The expensive pipeline
// (mining, uniqueness, labeling) and the Eq.-5 scoring of every protein
// happened at `lamod build` time; a request only reads the artifact's
// score index, so one process can serve many queries against one mined
// model.
//
// Endpoints:
//
//	GET  /v1/healthz — liveness plus readiness, artifact identity, model counts
//	GET  /v1/predict?protein=NAME&k=N — rank functions for one or more
//	                   proteins (repeat protein= for a batch of up to 64)
//	POST /v1/query   — execute one bulk query plan (internal/query) against
//	                   the request's model snapshot, streaming the result
//	GET  /v1/motifs  — the labeled motifs backing the model: each one's
//	                   pattern, labels, frequency and uniqueness
//	GET  /v1/traces  — the most recent sampled span traces, or one by ID
//	GET  /metrics    — request, latency and Go runtime series in
//	                   Prometheus text format
//	POST /v1/admin/reload — swap the served artifact in place (opt-in via
//	                   Config.AllowReload): load read-only, verify digest,
//	                   atomic model flip, zero dropped requests
//
// Every response carries an X-Request-Id header (echoing a valid client
// value or generated), and with Config.Logger set each request emits one
// structured access-log line off the hot path.
//
// Responses are byte-deterministic: the same artifact and query produce
// identical bytes at any Parallelism setting, across runs and across
// processes, because scores and rankings are read from the artifact and
// JSON field order is fixed. Request bodies (query plans, reloads) are
// capped at MaxBody.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lamofinder/internal/artifact"
	"lamofinder/internal/obs"
	"lamofinder/internal/predict"
	"lamofinder/internal/query"
)

// MaxBody caps the request body a replica decodes — a query plan or a
// reload request — at 1 MiB, far above any valid request. A larger body
// is answered with 413. The gateway reads its one POST body, a rollout
// request, under the same cap and answers it the same way.
const MaxBody = 1 << 20

// maxBatch caps the protein= values accepted in one predict request.
const maxBatch = 64

// Config tunes the daemon. The zero value of any field falls back to the
// default; none of the knobs change response bytes.
type Config struct {
	// Parallelism caps the worker goroutines a /v1/query plan scans with
	// (0 = GOMAXPROCS). Predictions only read the index and never fan out.
	Parallelism int
	// RequestTimeout is the per-request deadline enforced server-side:
	// the request's connection must finish reading its body and writing
	// its response within it, or the connection is closed.
	RequestTimeout time.Duration
	// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/ on
	// the daemon's own mux, outside the request deadline (a 30s CPU
	// profile must outlive a 5s predict timeout). Off by default: the
	// endpoints expose stacks and heap contents, so they are opt-in for
	// operators, never ambient.
	EnablePprof bool
	// Logger, when set, enables structured access logging: one line per
	// request (trace id, method, route, status, duration), emitted off the
	// hot path through a bounded ring drained by a background goroutine.
	// Nil, or a logger that drops Info lines, disables access logging
	// entirely: no ring, no drain goroutine. The ring holds 1024 records;
	// when the drain goroutine cannot keep up it drops records and counts
	// them in the access_log_dropped metric — logging never blocks a
	// request.
	Logger *obs.Logger
	// TraceSampleEvery selects span-trace head sampling: every Nth request
	// records a full span tree into the trace store (0 = the obs default,
	// 1 in 16). Negative disables head sampling — only forced requests
	// (client X-Request-Id, X-Trace-Sample: 1, or a propagated
	// X-Trace-Context) trace. Sampling never changes response bytes.
	// GET /v1/traces serves the most recent 256 finished traces.
	TraceSampleEvery int
	// PromExemplars opts the /metrics latency histograms into OpenMetrics
	// exemplar annotations (`# {trace_id="..."} <seconds>` on the bucket
	// holding the most recent traced sample). Off by default so the classic
	// text exposition stays byte-compatible.
	PromExemplars bool
	// AllowReload mounts POST /v1/admin/reload: load a new artifact file
	// read-only, verify its digest, and atomically flip the served model
	// without dropping a request. Off by default — the endpoint lets a
	// caller make the daemon read arbitrary local files, so it is opt-in
	// for operators running a coordinator (lamod gateway), never ambient.
	AllowReload bool
	// ReloadDir, when non-empty, restricts /v1/admin/reload to artifact
	// paths inside this directory (after filepath.Clean). Empty means any
	// path the process can read.
	ReloadDir string
}

// DefaultConfig returns the serving defaults.
func DefaultConfig() Config {
	return Config{
		RequestTimeout: 5 * time.Second,
	}
}

// model is the immutable bundle a request reads: the artifact plus the
// query view bound to it at load time. /v1/predict and /v1/query both
// resolve names and read scores through the one view, and requests load
// the bundle through one atomic pointer, so /v1/admin/reload flips both
// endpoints consistently — a request never sees artifact A's index with
// artifact B's name table. Old models drain naturally: in-flight requests
// keep their loaded pointer until they finish, exactly like in-flight
// requests keep the old process alive through the SIGTERM/Shutdown path.
type model struct {
	art    *artifact.Artifact
	view   *query.View
	digest string
	// coverage counts the proteins inside at least one labeled motif,
	// reported by /v1/healthz.
	coverage int
}

// newModel derives the request-time bundle from a loaded artifact. The
// artifact is shared read-only across request goroutines and must not be
// mutated afterwards.
func newModel(art *artifact.Artifact) (*model, error) {
	digest, err := art.Digest()
	if err != nil {
		return nil, fmt.Errorf("serve: digest artifact: %w", err)
	}
	view, err := query.NewView(art, 0)
	if err != nil {
		return nil, fmt.Errorf("serve: build query view: %w", err)
	}
	return &model{
		art:      art,
		view:     view,
		digest:   digest,
		coverage: art.Coverage(),
	}, nil
}

// Server answers prediction queries against one loaded artifact.
type Server struct {
	mdl       atomic.Pointer[model]
	ready     atomic.Bool // false while an artifact reload is in flight
	reloading atomic.Bool // serializes reloads; readiness gate for routers
	cfg       Config
	met       metrics
	access    *obs.AccessLog // nil when Config.Logger is nil
	tracer    *obs.Tracer    // mints "req-N" IDs for requests without one
}

// New builds a server over a loaded artifact. The artifact is shared
// read-only across request goroutines and must not be mutated afterwards.
func New(art *artifact.Artifact, cfg Config) (*Server, error) {
	def := DefaultConfig()
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = def.RequestTimeout
	}
	m, err := newModel(art)
	if err != nil {
		return nil, err
	}
	access := obs.NewAccessLog(cfg.Logger, 0)
	s := &Server{
		cfg:    cfg,
		met:    newMetrics(access),
		access: access,
		tracer: obs.NewTracer("req", cfg.TraceSampleEvery, 0),
	}
	s.mdl.Store(m)
	s.ready.Store(true)
	return s, nil
}

// Digest returns the served artifact's identity.
func (s *Server) Digest() string { return s.mdl.Load().digest }

// ErrReloadInFlight is returned when a reload is requested while another
// one is still running; the caller should retry after the first finishes.
var ErrReloadInFlight = errors.New("serve: artifact reload already in flight")

// ReloadResult reports one completed artifact swap.
type ReloadResult struct {
	Previous string `json:"previous"` // digest served before the swap
	Artifact string `json:"artifact"` // digest served now
}

// Reload loads the artifact at path read-only and atomically flips the
// served model to it. While the reload is in flight Ready reports false,
// so a health-gating router drains this replica before the flip; requests
// that still arrive are answered correctly throughout (old model until
// the flip, new model after — never a mix). wantDigest, when non-empty,
// must match the new artifact's identity or the swap is refused and the
// old model keeps serving. The previous model is not torn down: requests
// holding it finish on it, then it is garbage.
func (s *Server) Reload(path, wantDigest string) (ReloadResult, error) {
	if !s.reloading.CompareAndSwap(false, true) {
		return ReloadResult{}, ErrReloadInFlight
	}
	defer s.reloading.Store(false)
	// Readiness drops for the duration of the load and restores on every
	// exit: an aborted reload leaves the old, still-valid model serving.
	s.ready.Store(false)
	defer s.ready.Store(true)
	art, err := artifact.LoadFile(path)
	if err != nil {
		return ReloadResult{}, fmt.Errorf("serve: reload: %w", err)
	}
	m, err := newModel(art)
	if err != nil {
		return ReloadResult{}, err
	}
	if wantDigest != "" && m.digest != wantDigest {
		return ReloadResult{}, fmt.Errorf("serve: reload: artifact digest %s does not match requested %s", m.digest, wantDigest)
	}
	prev := s.mdl.Swap(m)
	return ReloadResult{Previous: prev.digest, Artifact: m.digest}, nil
}

// Close flushes and stops the access-log drain goroutine. Serve calls it
// on shutdown; tests and embedders that never call Serve should close the
// server themselves. Idempotent and safe on a logger-less server.
func (s *Server) Close() {
	s.access.Close()
}

// Handler returns the daemon's HTTP handler: its own ServeMux (never the
// process-global one), instrumented. instrument arms each request's
// deadline on its connection, so every handler runs on the connection's
// own goroutine and writes straight to it. /v1/admin/reload carries no
// deadline, and with EnablePprof the profiling endpoints mount beside,
// not inside, the instrumented chain, so reloads and profiles longer than
// the request timeout work.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/motifs", s.handleMotifs)
	mux.HandleFunc("/v1/traces", s.handleTraces)
	mux.HandleFunc("/v1/traces/", s.handleTraces)
	mux.HandleFunc("/metrics", s.handleProm)
	if s.cfg.AllowReload {
		mux.HandleFunc("/v1/admin/reload", s.handleReload)
	}
	h := s.instrument(mux)
	if !s.cfg.EnablePprof {
		return h
	}
	root := http.NewServeMux()
	root.Handle("/", h)
	root.HandleFunc("/debug/pprof/", pprof.Index)
	root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	root.HandleFunc("/debug/pprof/profile", pprof.Profile)
	root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return root
}

// deadliner is the part of net/http's ResponseWriter that sets its
// connection's deadlines. Asserting to it allocates nothing, where
// http.NewResponseController allocates a controller per request.
type deadliner interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// ListenAndServe runs the daemon on addr until ctx is canceled (the caller
// wires SIGTERM/SIGINT into ctx), then shuts down gracefully: the listener
// closes immediately, in-flight requests drain for up to drain, and only
// then does the call return.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drain time.Duration) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	return s.Serve(ctx, l, drain)
}

// Serve is ListenAndServe over an existing listener, which it takes
// ownership of.
func (s *Server) Serve(ctx context.Context, l net.Listener, drain time.Duration) error {
	return Run(ctx, l, s.Handler(), drain, s.Close)
}

// Run is the HTTP shell lamod serve and lamod gateway share. It serves h
// on l, which it takes ownership of, until ctx is canceled, then shuts
// down gracefully: the listener closes immediately and in-flight requests
// drain for up to drain (<= 0 waits for all of them). closeFn runs once
// no request is left — after the drain, or when serving fails early — so
// buffered logs are flushed before the process reports a clean shutdown.
func Run(ctx context.Context, l net.Listener, h http.Handler, drain time.Duration, closeFn func()) error {
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		closeFn()
		return err
	case <-ctx.Done():
	}
	sctx := context.Background()
	if drain > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sctx, drain)
		defer cancel()
	}
	err := hs.Shutdown(sctx)
	<-errc // Serve has returned http.ErrServerClosed
	closeFn()
	if err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	return nil
}

// statusRecorder captures the response code for the metrics middleware.
// idval backs the X-Request-Id response header: assigning idval[:] into
// the header map shares the pooled array instead of allocating a fresh
// []string per request. Reusing the array is safe because every
// instrumented route calls WriteHeader before ServeHTTP returns, and
// net/http copies the header map's values there, so no response still
// reads the slice once the recorder goes back to the pool.
type statusRecorder struct {
	http.ResponseWriter
	status int
	idval  [1]string
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// instrument wraps the handler chain with the request deadline and the
// full observability layer — trace IDs, per-route latency histograms,
// error counters and ring-fed access logs — at zero allocations per
// request when the client supplies an X-Request-Id (generating a fallback
// ID builds one small string). The deadline, RequestTimeout from the
// request's start, bounds both reading its body and writing its response;
// a reload carries none. The recorder is returned to the pool without
// defer so a panicking handler abandons it instead of recycling possibly
// inconsistent state.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route := routeOf(r.URL.Path)
		// net/http clears the connection's deadlines after every request,
		// so a route without one (a reload) just sets none. Writers without
		// a connection (test recorders) have no deadline to set.
		if d, ok := w.(deadliner); ok && route != routeReload {
			deadline := start.Add(s.cfg.RequestTimeout)
			// An error means the connection is gone; the handler's own reads
			// and writes report that.
			_ = d.SetReadDeadline(deadline)
			_ = d.SetWriteDeadline(deadline)
		}
		id := r.Header.Get("X-Request-Id")
		if !obs.ValidTraceID(id) {
			// Invalid or absent client IDs are replaced, never sanitized, so
			// logs cannot carry attacker-shaped strings.
			id = s.tracer.NextID()
		}
		rec := recorderPool.Get().(*statusRecorder)
		rec.ResponseWriter = w
		rec.status = http.StatusOK
		rec.idval[0] = id
		w.Header()["X-Request-Id"] = rec.idval[:]
		next.ServeHTTP(rec, r)
		dur := time.Since(start)
		s.met.requests.Add(1)
		if rec.status >= 400 {
			s.met.errors.Add(1)
		}
		s.met.lat.Hist(route).Record(dur)
		if s.access != nil {
			s.access.Push(obs.AccessRecord{
				Time:     start,
				TraceID:  id,
				Method:   r.Method,
				Route:    routeNames[route],
				Status:   rec.status,
				Duration: dur,
			})
		}
		rec.ResponseWriter = nil
		recorderPool.Put(rec)
	})
}

// NextQueryPair splits the first key=value pair off a raw URL query and
// decodes it the way url.ParseQuery does. ok is false for a pair
// url.ParseQuery drops: an empty one, one holding a semicolon, or one
// whose key or value does not unescape. Only a key or value containing
// '%' or '+' is decoded, so a plain query allocates nothing. The predict
// handler and the gateway's routing key both read GET queries through it,
// instead of building the url.Values map per request.
func NextQueryPair(raw string) (key, val, rest string, ok bool) {
	pair, rest, _ := strings.Cut(raw, "&")
	if pair == "" || strings.IndexByte(pair, ';') >= 0 {
		return "", "", rest, false
	}
	key, val, _ = strings.Cut(pair, "=")
	if key, ok = unescapeQuery(key); !ok {
		return "", "", rest, false
	}
	val, ok = unescapeQuery(val)
	return key, val, rest, ok
}

func unescapeQuery(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	dec, err := url.QueryUnescape(s)
	return dec, err == nil
}

// parsePredictQuery appends a raw GET query's protein= values, in order,
// to the scratch and returns the first k= value, as r.URL.Query() would
// read them.
func parsePredictQuery(raw string, sc *scratch) (k string) {
	haveK := false
	for raw != "" {
		key, val, rest, ok := NextQueryPair(raw)
		raw = rest
		switch {
		case !ok: // a pair url.ParseQuery drops
		case key == "protein":
			sc.proteins = append(sc.proteins, val)
		case key == "k" && !haveK:
			k, haveK = val, true
		}
	}
	return k
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	tr := s.startTrace(w, r, "predict")
	defer s.endTrace(tr, routePredict)
	// One pointer load pins the whole model for this request: a concurrent
	// reload flips the pointer for later requests, never mid-request.
	m := s.mdl.Load()
	sc := getScratch()
	defer putScratch(sc)
	parseSpan := tr.StartSpan(tr.Root(), "parse")
	k := 0
	if ks := parsePredictQuery(r.URL.RawQuery, sc); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil {
			writeFieldError(w, http.StatusBadRequest, query.Errorf("k", "must be an integer, got %q", ks))
			return
		}
		k = v
	}
	// Bounds checks run through the shared plan-validation path in
	// internal/query: /v1/predict's k and batch cap reject exactly the
	// inputs a plan's topk would, with the same structured (field, reason)
	// body, instead of this handler's former ad-hoc prose.
	if fe := query.ValidateBatch(len(sc.proteins), maxBatch); fe != nil {
		writeFieldError(w, http.StatusBadRequest, fe)
		return
	}
	if fe := query.ValidateTopK(k); fe != nil {
		writeFieldError(w, http.StatusBadRequest, fe)
		return
	}
	if k == 0 || k > m.view.NumFunctions() {
		k = m.view.NumFunctions()
	}
	for _, name := range sc.proteins {
		p, ok := m.resolve(name)
		if !ok {
			writeFieldError(w, http.StatusNotFound, query.Errorf("protein", "unknown protein %q", name))
			return
		}
		sc.ids = append(sc.ids, p)
	}
	tr.SetRows(parseSpan, int64(len(sc.proteins)), int64(len(sc.ids)))
	tr.EndSpan(parseSpan)

	rankSpan := tr.StartSpan(tr.Root(), "rank")
	if cap(sc.rankings) < len(sc.ids) {
		sc.rankings = make([][]predict.Ranked, len(sc.ids))
	}
	sc.rankings = sc.rankings[:len(sc.ids)]
	// A prediction is a subslice of the precomputed full ranking — no
	// scoring, no sorting, no worker pool, no allocation.
	for i, p := range sc.ids {
		rk := m.view.Ranking(p)
		if k < len(rk) {
			rk = rk[:k]
		}
		sc.rankings[i] = rk
	}
	tr.SetDetail(rankSpan, "index")
	s.met.predictions.Add(int64(len(sc.ids)))
	tr.SetRows(rankSpan, int64(len(sc.ids)), int64(len(sc.ids)))
	tr.EndSpan(rankSpan)
	encodeSpan := tr.StartSpan(tr.Root(), "encode")
	sc.buf = appendPredictResponse(sc.buf, m.view, k, sc.proteins, sc.ids, sc.rankings)
	writeRaw(w, http.StatusOK, sc.buf)
	tr.EndSpan(encodeSpan)
}

// handleQuery executes one bulk query plan (POST /v1/query). The plan
// binds against the columnar view of the model snapshot pinned by this
// request's single pointer load — a concurrent reload never splits a plan
// across two models — and the result streams straight from the engine's
// per-batch buffers, so a full-interactome scan never materializes twice.
// Validation failures return the same structured (field, reason) body as
// /v1/predict's bounds checks; both run the one shared path in
// internal/query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	tr := s.startTrace(w, r, "query")
	defer s.endTrace(tr, routeQuery)
	m := s.mdl.Load()
	decodeSpan := tr.StartSpan(tr.Root(), "decode")
	var plan query.Plan
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBody)).Decode(&plan); err != nil {
		writeFieldError(w, BodyStatus(err), query.Errorf("body", "bad plan JSON: %v", err))
		return
	}
	tr.EndSpan(decodeSpan)
	start := time.Now()
	execSpan := tr.StartSpan(tr.Root(), "execute")
	// Operator stats are collected whenever the request is traced, even
	// without "explain": true — the trace gets per-operator child spans
	// either way; the response body gains the explain field only on request.
	res, stats, fe := query.ExecuteStats(m.view, &plan, s.cfg.Parallelism, tr != nil)
	if fe != nil {
		writeFieldError(w, http.StatusBadRequest, fe)
		return
	}
	tr.EndSpan(execSpan)
	if tr != nil && stats != nil {
		// Operator busy time is CPU occupancy summed across workers; spans
		// carry it as the duration, anchored at the execute span's start.
		for i := range stats.Ops {
			o := &stats.Ops[i]
			tr.AddSpan(execSpan, o.Op, "", start, time.Duration(o.BusyUS)*time.Microsecond, o.RowsIn, o.RowsOut)
		}
	}
	streamSpan := tr.StartSpan(tr.Root(), "stream")
	h := w.Header()
	if _, ok := h["Content-Type"]; !ok {
		h["Content-Type"] = contentTypeJSON
	}
	w.WriteHeader(http.StatusOK)
	// The client is gone if the stream fails; there is nowhere to report.
	_, _ = res.WriteTo(w)
	tr.SetRows(streamSpan, int64(res.RowCount()), int64(res.RowCount()))
	tr.EndSpan(streamSpan)
	s.met.queries.Add(1)
	s.met.queryRows.Add(int64(res.RowCount()))
	d := time.Since(start)
	kind := planKindIndex(res.Kind)
	s.met.planLat.Hist(kind).Record(d)
	if tr != nil {
		s.met.planLat.Exemplar(kind).Set(tr.ID(), d.Microseconds())
	}
}

// fieldErrorResponse is the structured validation-error body: a flat
// human-readable message plus the machine-readable (field, reason) pair
// from the shared validation path.
type fieldErrorResponse struct {
	Error  string `json:"error"`
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

func writeFieldError(w http.ResponseWriter, status int, fe *query.FieldError) {
	WriteJSON(w, status, fieldErrorResponse{Error: fe.Error(), Field: fe.Field, Reason: fe.Reason})
}

// BodyStatus is the status for a request body that failed to read or
// decode through http.MaxBytesReader: 413 when it overran MaxBody, 400
// otherwise. The gateway answers its rollout body through it too.
func BodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// resolve maps a protein name (or a bare vertex index) to its vertex id,
// through the view's name table — the one /v1/query resolves against.
func (m *model) resolve(name string) (int, bool) {
	if p, ok := m.view.Resolve(name); ok {
		return p, true
	}
	if p, err := strconv.Atoi(name); err == nil && p >= 0 && p < m.view.NumProteins() {
		return p, true
	}
	return 0, false
}

// healthzResponse is the body of /v1/healthz. Status is liveness (the
// process is up and serving); Ready is readiness (willing to take new
// traffic — false while an artifact reload is in flight, so a router
// drains the replica before the model flips).
type healthzResponse struct {
	Status       string `json:"status"`
	Ready        bool   `json:"ready"`
	Artifact     string `json:"artifact"`
	Dataset      string `json:"dataset"`
	Proteins     int    `json:"proteins"`
	Interactions int    `json:"interactions"`
	Functions    int    `json:"functions"`
	Motifs       int    `json:"motifs"`
	// Coverage counts the proteins inside at least one labeled motif — the
	// population the labeled-motif method can score at all.
	Coverage int `json:"coverage"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	m := s.mdl.Load()
	WriteJSON(w, http.StatusOK, healthzResponse{
		Status:       "ok",
		Ready:        s.ready.Load(),
		Artifact:     m.digest,
		Dataset:      m.art.Dataset,
		Proteins:     m.art.Graph.N(),
		Interactions: m.art.Graph.M(),
		Functions:    m.art.NumFunctions,
		Motifs:       len(m.art.Motifs),
		Coverage:     m.coverage,
	})
}

// reloadRequest is the body of POST /v1/admin/reload. Artifact names the
// new artifact file on the daemon's filesystem; Digest, when non-empty,
// is the expected identity — a mismatched file is refused, which is what
// makes a coordinator-driven rollout end-to-end digest-verified.
type reloadRequest struct {
	Artifact string `json:"artifact"`
	Digest   string `json:"digest"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req reloadRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBody)).Decode(&req); err != nil {
		WriteError(w, BodyStatus(err), "bad request body: %v", err)
		return
	}
	if req.Artifact == "" {
		WriteError(w, http.StatusBadRequest, "artifact path is required")
		return
	}
	if dir := s.cfg.ReloadDir; dir != "" {
		rel, err := filepath.Rel(dir, filepath.Clean(req.Artifact))
		if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			WriteError(w, http.StatusForbidden, "artifact path %q is outside the reload directory", req.Artifact)
			return
		}
	}
	res, err := s.Reload(req.Artifact, req.Digest)
	switch {
	case errors.Is(err, ErrReloadInFlight):
		WriteError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		WriteError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

// MotifSummary describes one labeled motif without its occurrence list.
// Pattern is its shape as graph.Dense.String prints it, "size:[i-j ...]"
// over the vertex indices Labels uses. Labels holds one GO term ID array
// per vertex, [] for a vertex without labels.
type MotifSummary struct {
	Index       int        `json:"index"`
	Size        int        `json:"size"`
	Pattern     string     `json:"pattern"`
	Frequency   int        `json:"frequency"`
	Uniqueness  float64    `json:"uniqueness"`
	Occurrences int        `json:"occurrences"`
	Labels      [][]string `json:"labels"`
}

// MotifsResponse is the body of /v1/motifs.
type MotifsResponse struct {
	Artifact string         `json:"artifact"`
	Motifs   []MotifSummary `json:"motifs"`
}

func (s *Server) handleMotifs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	m := s.mdl.Load()
	out := MotifsResponse{Artifact: m.digest, Motifs: make([]MotifSummary, len(m.art.Motifs))}
	for i, lm := range m.art.Motifs {
		ms := MotifSummary{
			Index:       i,
			Size:        lm.Size(),
			Pattern:     lm.Pattern.String(),
			Frequency:   lm.Frequency,
			Uniqueness:  lm.Uniqueness,
			Occurrences: len(lm.Occurrences),
			Labels:      make([][]string, lm.Size()),
		}
		// A vertex without labels reads [], not null.
		for v, ts := range lm.Labels {
			ms.Labels[v] = make([]string, len(ts))
			for j, t := range ts {
				ms.Labels[v][j] = m.art.Ontology.ID(int(t))
			}
		}
		out.Motifs[i] = ms
	}
	WriteJSON(w, http.StatusOK, out)
}

type errorResponse struct {
	Error string `json:"error"`
}

// WriteError writes the {"error": ...} body the daemon and the gateway
// answer every failed request with.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// WriteJSON writes v as one line of JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Marshal over plain structs cannot fail; guard anyway.
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	writeRaw(w, status, append(b, '\n'))
}

// contentTypeJSON is the shared Content-Type header value: assigning the
// same backing slice on every response avoids the per-request []string
// allocation Header().Set would make on the hot path. net/http only reads
// header values.
var contentTypeJSON = []string{"application/json"}

// writeRaw writes a pre-encoded JSON body.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	if _, ok := h["Content-Type"]; !ok {
		h["Content-Type"] = contentTypeJSON
	}
	w.WriteHeader(status)
	// The client is gone if this write fails; there is nowhere to report.
	_, _ = w.Write(body)
}
