package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"lamofinder/internal/artifact"
	"lamofinder/internal/dataset"
	"lamofinder/internal/fleet"
	"lamofinder/internal/label"
	"lamofinder/internal/motif"
	"lamofinder/internal/obs"
	"lamofinder/internal/par"
	"lamofinder/internal/query"
	"lamofinder/internal/serve"
)

// Traced workloads (-trace 1). Each times calls into the repository's
// packages from this process over the same seeded inputs as its
// end-to-end counterpart, records every timed call as a span, and sets
// the layer metrics the workload exercises. Spans are written to
// .bench_build/traces/<workload>.jsonl.

// sink receives the results of loops timed as one span, so the compiler
// cannot drop the calls.
var sink int

const (
	handlerCalls = 50_000    // in-process predict handler calls
	allocCalls   = 2_000     // predict handler calls measured for allocations
	loopCalls    = 1_000_000 // (*ScoreIndex).Ranking calls timed as one span
	ownerCalls   = 100_000   // (*Ring).Owner calls timed as one span: about 1 µs each
)

func (r *runner) runTrace(ctx context.Context) error {
	name := "bench." + r.workload
	root := r.tr.begin(noSpan, name)
	var err error
	switch r.workload {
	case "build":
		err = r.traceBuild(ctx, root)
	case "predict":
		err = r.tracePredict(ctx, root)
	case "query":
		err = r.traceQuery(ctx, root)
	case "fleet-rollout":
		err = r.traceFleet(ctx, root)
	default:
		err = fmt.Errorf("unknown workload %q", r.workload)
	}
	r.tr.end(root)
	if err != nil {
		return err
	}
	for _, d := range layerMetrics {
		if xs, ok := r.layerSamples[d.name]; ok {
			r.set(d.name, median(xs))
		}
	}
	r.set("trace.unattributed_frac", r.tr.unattributed(name))
	return r.tr.write(filepath.Join(r.work, "traces", r.workload+".jsonl"))
}

// add records one observation of a layer metric; the run reports the
// median of its observations.
func (r *runner) add(name string, v float64) {
	r.layerSamples[name] = append(r.layerSamples[name], v)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func totalAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}

// traceBuild alternates the untraced CLI build with the same pipeline
// traced in-process until the run time has passed, then loads the result
// the way a daemon does. The CLI builds give the tracing overhead.
func (r *runner) traceBuild(ctx context.Context, root int32) error {
	out := filepath.Join(r.work, "run", "traced.lamoart")
	var cli, traced []float64
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < r.dur {
		id := r.tr.begin(root, "lamod.build")
		res, err := r.lamodBuild(ctx, filepath.Join(r.work, "run", "build.lamoart"), nil)
		r.tr.end(id)
		if err == nil {
			err = r.pre.checkBuild(res.digest, res.mined, res.unique, res.labeled)
		}
		r.op(err)
		if err != nil {
			return err
		}
		cli = append(cli, res.wall.Seconds())
		d, err := r.inProcessBuild(root, out)
		r.op(err)
		if err != nil {
			return err
		}
		traced = append(traced, d.Seconds())
	}
	r.set("build.unattributed_frac", r.tr.unattributed("build"))
	r.set("build.trace_overhead_frac", median(traced)/median(cli)-1)
	load := r.tr.begin(root, "load")
	defer r.tr.end(load)
	s, _, err := r.traceLoad(load, out, r.pre.digest)
	if err != nil {
		return err
	}
	s.Close()
	return nil
}

// inProcessBuild is `lamod build` with a span around each package call,
// checked against the pinned digest and counts.
func (r *runner) inProcessBuild(parent int32, out string) (time.Duration, error) {
	cfg := r.pre.config()
	cfg.Label.Now = time.Now // enables the labeler's clustering telemetry
	tr := r.tr
	id := tr.begin(parent, "build")
	stages := &obs.StageRecorder{}

	var m *dataset.MIPS
	d := tr.timed(id, "dataset.new_mips", func() { m = dataset.NewMIPS(cfg.MIPS) })
	r.add("dataset.new_mips_ms", ms(d))
	net := m.Task.Network

	var mined []*motif.Motif
	a0 := totalAllocMB()
	d = tr.timed(id, "motif.find", func() { mined = motif.Find(net, cfg.Mine) })
	r.add("motif.find_alloc_mb", totalAllocMB()-a0)
	r.add("motif.find_s", d.Seconds())
	stages.Record(obs.StageStat{Name: "census", Wall: d, Items: int64(len(mined)), Workers: 1})

	var unique []*motif.Motif
	a0 = totalAllocMB()
	d = tr.timed(id, "motif.uniqueness", func() {
		motif.ScoreUniqueness(net, mined, cfg.Null)
		unique = motif.FilterUnique(mined, cfg.MinUniqueness)
	})
	r.add("motif.uniqueness_alloc_mb", totalAllocMB()-a0)
	r.add("motif.uniqueness_s", d.Seconds())
	stages.Record(obs.StageStat{Name: "uniqueness", Wall: d, Items: int64(len(unique)), Workers: par.Workers(cfg.Null.Parallelism)})

	var labeler *label.Labeler
	var labeled []*label.LabeledMotif
	a0 = totalAllocMB()
	d = tr.timed(id, "label.label_all", func() {
		labeler = label.NewLabeler(m.Corpus, cfg.Label)
		labeled = labeler.LabelAll(unique)
	})
	r.add("label.label_all_alloc_mb", totalAllocMB()-a0)
	r.add("label.label_all_s", d.Seconds())
	busy, occs := labeler.ClusterStats()
	r.add("label.cluster_busy_s", busy.Seconds())
	r.add("label.cluster_occurrences", float64(occs))
	workers := par.Workers(cfg.Label.Parallelism)
	stages.Record(obs.StageStat{Name: "labeling", Wall: d, Items: int64(len(labeled)), Workers: workers, Busy: busy})
	stages.Record(obs.StageStat{Name: "clustering", Wall: busy, Items: occs, Workers: workers})

	names := make([]string, len(m.CategoryTerm))
	for c, ct := range m.CategoryTerm {
		names[c] = m.Ontology.ID(ct)
	}
	var art *artifact.Artifact
	var err error
	d = tr.timed(id, "artifact.build", func() {
		art, err = artifact.Build("synthetic-mips", "", m.Task, names,
			m.Corpus, m.Corpus.DirectCounts(), cfg.Label.MinDirect, labeled)
	})
	r.add("artifact.build_ms", ms(d))
	if err != nil {
		tr.end(id)
		return 0, err
	}
	d = tr.timed(id, "artifact.index", func() { art.BuildIndex(0) })
	r.add("artifact.index_ms", ms(d))
	stages.Record(obs.StageStat{Name: "ranking", Wall: d, Items: int64(art.Graph.N()), Workers: par.Workers(0)})
	// Like lamod build, store the stage table: it selects the format
	// version, which the digest covers.
	art.Stats = stages.Stages()
	var b []byte
	d = tr.timed(id, "artifact.encode", func() { b, err = art.Encode() })
	r.add("artifact.encode_ms", ms(d))
	if err == nil {
		d = tr.timed(id, "artifact.write", func() { err = os.WriteFile(out, b, 0o644) })
		r.add("artifact.write_ms", ms(d))
	}
	wall := tr.end(id)
	if err != nil {
		return wall, err
	}
	digest, err := art.Digest()
	if err != nil {
		return wall, err
	}
	return wall, r.pre.checkBuild(digest, len(mined), len(unique), len(labeled))
}

// traceLoad times what a daemon does with an artifact file: decode it,
// bind the columnar query view, build the server (with the heap that
// adds), and reload the same file in place.
func (r *runner) traceLoad(parent int32, path, digest string) (*serve.Server, *query.View, error) {
	tr := r.tr
	var art *artifact.Artifact
	var err error
	d := tr.timed(parent, "artifact.decode", func() { art, err = artifact.LoadFile(path) })
	if err != nil {
		return nil, nil, err
	}
	r.add("artifact.decode_ms", ms(d))
	fi, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	r.add("artifact.file_kb", float64(fi.Size())/1024)
	var view *query.View
	d = tr.timed(parent, "query.new_view", func() { view, err = query.NewView(art, 0) })
	if err != nil {
		return nil, nil, err
	}
	r.add("query.new_view_ms", ms(d))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var s *serve.Server
	d = tr.timed(parent, "serve.new", func() { s, err = serve.New(art, serve.Config{}) })
	if err != nil {
		return nil, nil, err
	}
	r.add("serve.new_ms", ms(d))
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.add("serve.model_heap_mb", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20))

	d = tr.timed(parent, "serve.reload", func() { _, err = s.Reload(path, digest) })
	r.op(err)
	if err != nil {
		s.Close()
		return nil, nil, err
	}
	r.add("serve.reload_ms", ms(d))
	return s, view, nil
}

// recorder is a reusable http.ResponseWriter for in-process handler calls.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{h: http.Header{}} }

func (w *recorder) Header() http.Header { return w.h }

func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *recorder) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

func (w *recorder) reset() {
	clear(w.h)
	w.code = 0
	w.body.Reset()
}

// result checks a recorded response against the oracle bytes.
func (w *recorder) result(want []byte) error {
	if w.code != http.StatusOK {
		return fmt.Errorf("in-process handler: status %d", w.code)
	}
	if !bytes.Equal(w.body.Bytes(), want) {
		return fmt.Errorf("in-process handler: response differs from the oracle")
	}
	return nil
}

// tracePredict: model load, the daemon's handler called in-process on the
// predict stream, the index lookup it serves from, and an open loop
// against a live `lamod serve` for the generator's lateness and the HTTP
// overhead around the handler.
func (r *runner) tracePredict(ctx context.Context, root int32) error {
	a, _, err := r.models(ctx)
	if err != nil {
		return err
	}
	reqs := predictRequests(r.rng, proteinNames(a.art), predictPool)
	var exp [][]byte
	r.tr.timed(root, "bench.oracle", func() { exp, err = expectedBodies(a.art, reqs) })
	if err != nil {
		return err
	}
	due := poissonSchedule(r.rng, predictRate, r.dur*2/3)
	seq := sequence(r.rng, len(reqs), seqLen)

	load := r.tr.begin(root, "load")
	s, _, err := r.traceLoad(load, a.path, a.digest)
	r.tr.end(load)
	if err != nil {
		return err
	}
	defer s.Close()
	h := s.Handler()
	hreqs := make([]*http.Request, len(reqs))
	for i, rq := range reqs {
		hreqs[i] = rq.httptest()
	}
	w := newRecorder()

	// Allocations per request, measured without spans.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	r.tr.timed(root, "serve.predict_allocs", func() {
		for i := 0; i < allocCalls; i++ {
			w.reset()
			h.ServeHTTP(w, hreqs[seq[i%len(seq)]])
		}
	})
	runtime.ReadMemStats(&m1)
	r.add("serve.predict_allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/allocCalls)

	stream := r.tr.begin(root, "serve.predict_stream")
	handler := make([]time.Duration, 0, handlerCalls)
	deadline := time.Now().Add(r.dur / 4) // binds only in short runs
	for i := 0; i < handlerCalls && (i == 0 || time.Now().Before(deadline)); i++ {
		t := seq[i%len(seq)]
		w.reset()
		id := r.tr.begin(stream, "serve.predict_handler")
		h.ServeHTTP(w, hreqs[t])
		handler = append(handler, r.tr.end(id))
		r.op(w.result(exp[t]))
	}
	r.tr.end(stream)
	hd := newDist(handler, time.Microsecond)
	r.add("serve.predict_handler_p50_us", hd.pct(5000))
	r.add("serve.predict_handler_p99_us", hd.pct(9900))

	if ix := a.art.Index; ix != nil {
		n := ix.NumProteins()
		d := r.tr.timed(root, "artifact.ranking", func() {
			for i := 0; i < loopCalls; i++ {
				sink += len(ix.Ranking(i % n))
			}
		})
		r.add("artifact.ranking_ns", float64(d.Nanoseconds())/loopCalls)
	}

	var st *stack
	r.tr.timed(root, "serve.start", func() {
		st, _, err = r.startServe(ctx, "serve", a.path, a.digest, false)
	})
	if err != nil {
		return err
	}
	defer st.stop()
	client := newClient(r.conns)
	defer client.CloseIdleConnections()
	tgt := r.target(client, st.base, reqs, seq, matchAny(exp))
	r.warmup(ctx, tgt.op)
	ol := r.tracedOpenLoop(ctx, root, "http.predict", due, tgt.op)
	r.add("http.predict_overhead_p50_us", ol.service.pct(5000)-hd.pct(5000))
	r.noteLoop("open", ol)
	return ctx.Err()
}

// tracedOpenLoop runs an open loop with a span per request under a phase
// span, and records the queue wait, the generator's lateness and the
// service times.
func (r *runner) tracedOpenLoop(ctx context.Context, parent int32, name string, due []time.Duration, op opFunc) loopSummary {
	phase := r.tr.begin(parent, "loadgen.open_loop")
	samples := openLoop(ctx, r.conns, due, func(ctx context.Context, w, i int) error {
		id := r.tr.begin(phase, name)
		err := op(ctx, w, i)
		r.tr.end(id)
		return err
	})
	r.tr.end(phase)
	ol := summarize(samples, 0)
	r.countSamples(ol)
	r.add("loadgen.late_p50_us", ol.late.pct(5000))
	r.add("loadgen.late_p99_us", ol.late.pct(9900))
	r.add("loadgen.queue_p99_us", ol.queue.pct(9900))
	r.add("loadgen.service_p50_us", ol.service.pct(5000))
	r.add("loadgen.service_p99_us", ol.service.pct(9900))
	return ol
}

// traceQuery: model load, then for each plan of the seeded stream the
// engine's Execute, the result's WriteTo, Execute with operator stats,
// and the daemon's handler, all in-process and checked against the
// oracle, for the run time.
func (r *runner) traceQuery(ctx context.Context, root int32) error {
	a, _, err := r.models(ctx)
	if err != nil {
		return err
	}
	plans := queryPlans(r.rng, proteinNames(a.art), queryPool)
	reqs, err := queryRequests(plans)
	if err != nil {
		return err
	}
	var exp [][]byte
	r.tr.timed(root, "bench.oracle", func() { exp, err = expectedBodies(a.art, reqs) })
	if err != nil {
		return err
	}
	seq := sequence(r.rng, len(reqs), seqLen)

	load := r.tr.begin(root, "load")
	s, view, err := r.traceLoad(load, a.path, a.digest)
	r.tr.end(load)
	if err != nil {
		return err
	}
	defer s.Close()
	h := s.Handler()
	w := newRecorder()
	var out bytes.Buffer
	var execute, write, handler []time.Duration
	busy := map[string][]float64{}
	stream := r.tr.begin(root, "query.stream")
	deadline := time.Now().Add(r.dur)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		t := seq[i%len(seq)]
		plan := &plans[t]
		var res *query.Result
		var fe *query.FieldError
		execute = append(execute, r.tr.timed(stream, "query.execute", func() { res, fe = query.Execute(view, plan, 0) }))
		if fe != nil {
			return fmt.Errorf("query plan %d: %v", t, fe)
		}
		out.Reset()
		var werr error
		write = append(write, r.tr.timed(stream, "query.write", func() { _, werr = res.WriteTo(&out) }))
		if werr == nil && !bytes.Equal(out.Bytes(), exp[t]) {
			werr = fmt.Errorf("query plan %d: engine output differs from the oracle", t)
		}
		r.op(werr)

		var stats *query.Stats
		r.tr.timed(stream, "query.execute_stats", func() { _, stats, fe = query.ExecuteStats(view, plan, 0, true) })
		if fe != nil {
			return fmt.Errorf("query plan %d: %v", t, fe)
		}
		for _, o := range stats.Ops {
			busy[o.Op] = append(busy[o.Op], float64(o.BusyUS))
		}

		req := reqs[t].httptest()
		w.reset()
		handler = append(handler, r.tr.timed(stream, "serve.query_handler", func() { h.ServeHTTP(w, req) }))
		r.op(w.result(exp[t]))
	}
	r.tr.end(stream)
	ed, wd, hd := newDist(execute, time.Microsecond), newDist(write, time.Microsecond), newDist(handler, time.Microsecond)
	r.add("query.execute_p50_us", ed.pct(5000))
	r.add("query.execute_p99_us", ed.pct(9900))
	r.add("query.write_p50_us", wd.pct(5000))
	r.add("serve.query_handler_p50_us", hd.pct(5000))
	r.add("serve.query_handler_p99_us", hd.pct(9900))
	// Busy time per plan, averaged over every plan run (a plan kind
	// without the operator adds nothing).
	for _, op := range []string{"scan", "filter", "topk", "emit"} {
		total := 0.0
		for _, b := range busy[op] {
			total += b
		}
		r.add("query.op_busy_us."+op, total/float64(max(1, len(execute))))
	}
	r.notef("query stream: %d plans", len(execute))
	return ctx.Err()
}

// traceFleet: live reloadable replicas behind the gateway's router run
// in-process, under an open loop at fleetRate while the router rolls the
// fleet between artifacts a and b. The router's handler time minus the
// replicas' own service time (measured directly first) is the relay cost.
func (r *runner) traceFleet(ctx context.Context, root int32) error {
	a, b, err := r.models(ctx)
	if err != nil {
		return err
	}
	reqs := predictRequests(r.rng, proteinNames(a.art), predictPool)
	var expA, expB [][]byte
	r.tr.timed(root, "bench.oracle", func() {
		if expA, err = expectedBodies(a.art, reqs); err == nil {
			expB, err = expectedBodies(b.art, reqs)
		}
	})
	if err != nil {
		return err
	}
	due := poissonSchedule(r.rng, fleetRate, r.dur*2/3)
	seq := sequence(r.rng, len(reqs), seqLen)

	load := r.tr.begin(root, "load")
	s, _, err := r.traceLoad(load, a.path, a.digest)
	r.tr.end(load)
	if err != nil {
		return err
	}
	s.Close()

	st := &stack{}
	defer st.stop()
	var addrs []string
	start := r.tr.begin(root, "fleet.start_replicas")
	for i := 0; i < fleetReplicas && err == nil; i++ {
		var rs *stack
		rs, _, err = r.startServe(ctx, fmt.Sprintf("replica%d", i), a.path, a.digest, true)
		if err == nil {
			st.procs = append(st.procs, rs.procs...)
			addrs = append(addrs, rs.base)
		}
	}
	r.tr.end(start)
	if err != nil {
		return err
	}
	check := matchAny(expA, expB)
	client := newClient(r.conns)
	defer client.CloseIdleConnections()

	ring := fleet.NewRing(addrs, fleet.DefaultVNodes)
	d := r.tr.timed(root, "fleet.ring_owner", func() {
		for i := 0; i < ownerCalls; i++ {
			sink += ring.Owner(reqs[seq[i%len(seq)]].key)
		}
	})
	r.add("fleet.ring_owner_ns", float64(d.Nanoseconds())/ownerCalls)

	// Direct replica service time: the baseline the relay cost is
	// measured against.
	direct := r.tr.begin(root, "replica.direct")
	tgt := r.target(client, addrs[0], reqs, seq, check)
	r.warmup(ctx, tgt.op)
	ds, elapsed := closedLoop(ctx, 1, r.dur/6, func(ctx context.Context, w, i int) error {
		id := r.tr.begin(direct, "replica.predict")
		err := tgt.op(ctx, w, i)
		r.tr.end(id)
		return err
	})
	r.tr.end(direct)
	dsum := summarize(ds, elapsed)
	r.countSamples(dsum)

	rt, err := fleet.New(fleet.Config{Replicas: addrs})
	if err != nil {
		return err
	}
	defer rt.Close()
	rt.StartProbes()
	for deadline := time.Now().Add(readyTimeout); ; {
		if m := rt.Metrics(); m.Artifact == a.digest && !m.MixedDigest {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("in-process router: replicas not uniform on %s", a.digest)
		}
		if err := sleepCtx(ctx, time.Millisecond); err != nil {
			return err
		}
	}
	phase := r.tr.begin(root, "fleet.phase")
	var mu sync.Mutex
	var relay []time.Duration
	rh := rt.Handler()
	gw := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := r.tr.begin(phase, "fleet.relay")
		rh.ServeHTTP(w, req)
		d := r.tr.end(id)
		mu.Lock()
		relay = append(relay, d)
		mu.Unlock()
	}))
	defer gw.Close()
	gtgt := r.target(client, gw.URL, reqs, seq, check)
	r.warmup(ctx, gtgt.op)
	mu.Lock()
	relay = relay[:0]
	mu.Unlock()

	rctx, stopRollouts := context.WithCancel(ctx)
	rolls := make(chan []time.Duration, 1)
	go func() {
		var ds []time.Duration
		models := [2]*model{a, b}
		next := time.Now().Add(r.pre.rolloutEvery)
		for i := 1; sleepCtx(rctx, time.Until(next)) == nil; i++ {
			next = next.Add(r.pre.rolloutEvery)
			m := models[i%2]
			id := r.tr.begin(phase, "fleet.rollout")
			_, err := rt.Rollout(context.WithoutCancel(rctx), m.path, m.digest)
			ds = append(ds, r.tr.end(id))
			r.op(err)
		}
		rolls <- ds
	}()
	before := rt.Metrics()
	ol := r.tracedOpenLoop(ctx, phase, "http.predict", due, gtgt.op)
	after := rt.Metrics()
	stopRollouts()
	for _, d := range <-rolls {
		r.add("fleet.rollout_ms", ms(d))
	}
	r.tr.end(phase)

	mu.Lock()
	rd := newDist(relay, time.Microsecond)
	mu.Unlock()
	r.add("fleet.relay_p50_us", rd.pct(5000)-dsum.service.pct(5000))
	r.add("fleet.relay_p99_us", rd.pct(9900)-dsum.service.pct(9900))
	reqsRouted := float64(after.Latency["predict"].Count - before.Latency["predict"].Count)
	retries := float64(after.Retries - before.Retries)
	hedges := float64(after.Hedges - before.Hedges)
	wins := float64(after.HedgeWins - before.HedgeWins)
	if reqsRouted > 0 {
		r.add("fleet.attempts_per_req", (reqsRouted+retries+hedges)/reqsRouted)
		r.add("fleet.hedges_per_req", hedges/reqsRouted)
	}
	if hedges > 0 {
		r.add("fleet.hedge_win_ratio", wins/hedges)
	}
	r.add("fleet.retries", retries)
	r.noteLoop("direct", dsum)
	r.noteLoop("open", ol)
	return ctx.Err()
}
