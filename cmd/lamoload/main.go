// Command lamoload is the deterministic load generator for a running lamod
// daemon. It derives its request stream from the served artifact file and a
// seed — the same artifact, seed, and flags always produce the same
// sequence of /v1/predict queries — then drives the daemon in closed-loop
// (fixed concurrency) or open-loop (fixed arrival rate) mode and reports
// latency percentiles and throughput in the BENCH_*.json trajectory schema
// (internal/benchfmt), beside the microbenchmarks cmd/benchjson records.
//
// Usage:
//
//	lamoload -artifact FILE [-server URL] [-workload predict|query]
//	         [-n N] [-c C] [-rate R]
//	         [-k K] [-batch B] [-seed S] [-timeout D]
//	         [-out PATH | -merge-into PATH] [-name PREFIX]
//
// Modes:
//
//	-rate 0 (default): closed loop — C workers issue requests back to back,
//	        so concurrency is fixed and arrival adapts to the daemon.
//	-rate R: open loop — requests start every 1/R seconds regardless of
//	        completions, so queueing delay shows up in the percentiles.
//
// -workload query drives POST /v1/query with a seeded mix of bulk plans
// (full scans, degree-filtered top-k, grouped top-k, pinned batches)
// instead of single-protein predicts. Its results carry query_-prefixed
// names (PREFIX/query_p50 … query_throughput) plus PREFIX/query_ns_per_row
// — wall_ns divided by result rows streamed, the reciprocal of rows/sec —
// so bulk-scoring throughput lands in the same BENCH_*.json trajectory the
// predict percentiles do, diffable against any earlier snapshot.
//
// The report encodes each percentile as one benchfmt result
// (PREFIX/p50 … PREFIX/max, ns_per_op = latency) plus PREFIX/throughput,
// whose ns_per_op is wall_ns/requests — the reciprocal of requests/sec.
// After the run it also scrapes the daemon's /v1/metrics and records the
// server-side predict percentiles as PREFIX/daemon_p50 … daemon_p99, so
// the trajectory carries both sides of the wire: the gap between client
// and daemon percentiles is network plus queueing, not scoring.
//
// -server may also point at a lamod gateway (the fleet router). lamoload
// detects the fleet from the metrics body's fleet:true marker and then
// records PREFIX/fleet_p50 … fleet_p99 (router-side predict latency,
// retries and hedging included) alongside PREFIX/daemon_p50 … daemon_p99
// derived from the merged per-replica upstream histograms — three tiers
// per run: client, router, replicas. The healthz identity check works
// unchanged because the gateway reports the fleet-uniform artifact digest.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lamofinder/internal/artifact"
	"lamofinder/internal/benchfmt"
	"lamofinder/internal/obs"
	"lamofinder/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// errf and errln write diagnostics to the (injected, testable) stderr; a
// failed diagnostic write has nowhere to be reported.
func errf(w io.Writer, format string, args ...any) { _, _ = fmt.Fprintf(w, format, args...) }
func errln(w io.Writer, args ...any)               { _, _ = fmt.Fprintln(w, args...) }

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamoload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	artPath := fs.String("artifact", "", "served artifact file: protein-name source and identity check (required)")
	server := fs.String("server", "http://127.0.0.1:8077", "lamod base URL")
	workload := fs.String("workload", "predict", "request shape: predict (GET /v1/predict) or query (POST /v1/query bulk plans)")
	n := fs.Int("n", 1000, "total requests to send")
	c := fs.Int("c", 4, "closed-loop worker count (also the connection pool size)")
	rate := fs.Float64("rate", 0, "open-loop arrivals per second (0 = closed loop)")
	k := fs.Int("k", 5, "top-k functions per query")
	batch := fs.Int("batch", 1, "proteins per request")
	seed := fs.Int64("seed", 1, "request-stream seed")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline")
	out := fs.String("out", "-", `snapshot output path ("-" = stdout)`)
	mergeInto := fs.String("merge-into", "", "append results to this existing BENCH_*.json instead of writing -out")
	traceSample := fs.Int("trace-sample", 0, "attach X-Trace-Sample: 1 to one request in N, opting it into server-side span tracing (0 = none)")
	name := fs.String("name", "", "result name prefix in the snapshot (default LoadPredict, or LoadQuery with -workload query)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		errf(stderr, "lamoload: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *artPath == "" {
		errln(stderr, "lamoload: -artifact is required")
		fs.Usage()
		return 2
	}
	if *n <= 0 || *c <= 0 || *batch <= 0 || *rate < 0 || *traceSample < 0 {
		errln(stderr, "lamoload: -n, -c, and -batch must be positive; -rate and -trace-sample non-negative")
		return 2
	}
	if *workload != "predict" && *workload != "query" {
		errf(stderr, "lamoload: -workload must be predict or query, got %q\n", *workload)
		return 2
	}
	if *name == "" {
		*name = "LoadPredict"
		if *workload == "query" {
			*name = "LoadQuery"
		}
	}

	art, err := artifact.LoadFile(*artPath)
	if err != nil {
		errf(stderr, "lamoload: %v\n", err)
		return 1
	}
	digest, err := art.Digest()
	if err != nil {
		errf(stderr, "lamoload: %v\n", err)
		return 1
	}
	names := make([]string, art.Graph.N())
	for p := range names {
		names[p] = art.Graph.Name(p)
	}

	// One explicit client: pooled connections sized to the worker count,
	// never the process-global transport.
	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        2 * *c,
			MaxIdleConnsPerHost: 2 * *c,
		},
	}
	if err := checkServedArtifact(client, *server, digest); err != nil {
		errf(stderr, "lamoload: %v\n", err)
		return 1
	}

	route, prefix := "predict", ""
	var reqs []request
	if *workload == "query" {
		route, prefix = "query", "query_"
		reqs = queryStream(*server, names, *n, *batch, *k, *seed)
	} else {
		reqs = predictStream(*server, names, *n, *batch, *k, *seed)
	}
	if *traceSample > 0 {
		// Deterministic head marking: the same tuple plus -trace-sample
		// names the same traced subset, like everything else in the stream.
		for i := 0; i < len(reqs); i += *traceSample {
			reqs[i].sample = true
		}
	}
	mode := "closed-loop"
	if *rate > 0 {
		mode = "open-loop"
	}
	errf(stderr, "lamoload: %d %s requests, %s, batch=%d k=%d seed=%d against %s\n",
		*n, *workload, mode, *batch, *k, *seed, *server)

	var lat []time.Duration
	var rows, errs int64
	var wall time.Duration
	if *rate > 0 {
		lat, rows, errs, wall = runOpenLoop(client, reqs, *rate)
	} else {
		lat, rows, errs, wall = runClosedLoop(client, reqs, *c)
	}
	if errs > 0 {
		errf(stderr, "lamoload: %d of %d requests failed\n", errs, *n)
		return 1
	}

	results := summarize(*name, prefix, lat, wall)
	rps := float64(len(lat)) / wall.Seconds()
	errf(stderr, "lamoload: %d ok in %v (%.1f req/s)  p50=%v p90=%v p99=%v max=%v\n",
		len(lat), wall.Round(time.Millisecond), rps,
		percentile(lat, 0.50).Round(time.Microsecond),
		percentile(lat, 0.90).Round(time.Microsecond),
		percentile(lat, 0.99).Round(time.Microsecond),
		lat[len(lat)-1].Round(time.Microsecond))
	if *workload == "query" && rows > 0 {
		// rows/sec is the headline number for bulk scoring; the snapshot
		// stores its reciprocal (ns per row) to stay in benchfmt units.
		results = append(results, benchfmt.Result{
			Name: *name + "/query_ns_per_row", Procs: 1,
			Iterations: rows, NsPerOp: float64(wall.Nanoseconds()) / float64(rows),
		})
		errf(stderr, "lamoload: %d result rows (%.0f rows/s)\n",
			rows, float64(rows)/wall.Seconds())
	}

	daemon, err := daemonResults(client, *server, *name, route)
	if err != nil {
		errf(stderr, "lamoload: daemon metrics: %v\n", err)
		return 1
	}
	if daemon == nil {
		errf(stderr, "lamoload: daemon reports no %s latency; skipping daemon_* results\n", route)
	} else {
		// Against a gateway the first triple is fleet_* (router-side) and a
		// second daemon_* triple follows from the merged replica histograms.
		for i := 0; i+2 < len(daemon); i += 3 {
			tier := strings.TrimSuffix(strings.TrimPrefix(daemon[i].Name, *name+"/"), "_p50")
			errf(stderr, "lamoload: %s-side predict p50=%dµs p90=%dµs p99=%dµs\n", tier,
				int64(daemon[i].NsPerOp)/1e3, int64(daemon[i+1].NsPerOp)/1e3, int64(daemon[i+2].NsPerOp)/1e3)
		}
		results = append(results, daemon...)
	}

	command := "lamoload " + strings.Join(args, " ")
	if *mergeInto != "" {
		if err := benchfmt.MergeFile(*mergeInto, command, results); err != nil {
			errf(stderr, "lamoload: %v\n", err)
			return 1
		}
		errf(stderr, "lamoload: merged %d results into %s\n", len(results), *mergeInto)
		return 0
	}
	snap := benchfmt.NewSnapshot(command, results)
	if err := snap.WriteFile(*out); err != nil {
		errf(stderr, "lamoload: %v\n", err)
		return 1
	}
	if *out != "-" {
		errf(stderr, "lamoload: wrote %s\n", *out)
	}
	return 0
}

// checkServedArtifact refuses to measure a daemon serving a different
// model than the one the request stream was derived from: the numbers
// would not be comparable to anything.
func checkServedArtifact(client *http.Client, server, digest string) error {
	resp, err := client.Get(server + "/v1/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s: %s", resp.Status, body)
	}
	if !strings.Contains(string(body), `"artifact":"`+digest+`"`) {
		return fmt.Errorf("daemon serves a different artifact than %s (want %s): %s", server, digest, body)
	}
	return nil
}

// serverSnapshot is the union of a daemon's and a gateway's /v1/metrics
// body. A daemon's snapshot has no "fleet" key, which decodes as false;
// a gateway's carries fleet:true plus the merged upstream latency, which
// is how lamoload tells the two apart without being told.
type serverSnapshot struct {
	serve.MetricsSnapshot
	Fleet    bool               `json:"fleet"`
	Upstream obs.LatencySummary `json:"upstream"`
}

// daemonResults scrapes /v1/metrics once and renders the server's own
// route percentiles as benchfmt results. These come from power-of-two
// histograms, so they are upper bounds with one bucket of resolution —
// coarser than the client-side order statistics, but free of network and
// client-scheduling noise. Against a plain daemon it emits
// PREFIX/daemon_p50..p99. Against a lamod gateway driving the predict
// route it emits PREFIX/fleet_p50..p99 (router-side, retries and hedges
// included) AND PREFIX/daemon_p50..p99 from the merged per-replica
// upstream histograms, so the trajectory carries all three tiers: client,
// router, replicas. The query route has no merged upstream histogram, so
// there it always reports the single daemon_* triple. Returns nil (no
// error) when the route has no observations.
func daemonResults(client *http.Client, server, prefix, route string) ([]benchfmt.Result, error) {
	resp, err := client.Get(server + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	var snap serverSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res := func(tier, suffix string, count, micros int64) benchfmt.Result {
		return benchfmt.Result{
			Name: prefix + "/" + tier + "_" + suffix, Procs: 1,
			Iterations: count, NsPerOp: float64(micros) * 1e3,
		}
	}
	lat, ok := snap.Latency[route]
	if !ok || lat.Count == 0 {
		return nil, nil
	}
	if !snap.Fleet || route != "predict" {
		return []benchfmt.Result{
			res("daemon", "p50", lat.Count, lat.P50Micros),
			res("daemon", "p90", lat.Count, lat.P90Micros),
			res("daemon", "p99", lat.Count, lat.P99Micros),
		}, nil
	}
	out := []benchfmt.Result{
		res("fleet", "p50", lat.Count, lat.P50Micros),
		res("fleet", "p90", lat.Count, lat.P90Micros),
		res("fleet", "p99", lat.Count, lat.P99Micros),
	}
	if up := snap.Upstream; up.Count > 0 {
		out = append(out,
			res("daemon", "p50", up.Count, up.P50Micros),
			res("daemon", "p90", up.Count, up.P90Micros),
			res("daemon", "p99", up.Count, up.P99Micros),
		)
	}
	return out, nil
}

// request is one precomputed unit of load: a GET when body is empty, a
// POST of body otherwise. sample opts the request into server-side span
// tracing via X-Trace-Sample, so a load run can deliberately seed the
// daemon's trace store without minting per-request IDs.
type request struct {
	url    string
	body   string
	sample bool
}

// predictStream precomputes the n /v1/predict URLs. Everything that
// varies is drawn from one seeded source, so a (artifact, seed, n, batch,
// k) tuple names one exact workload.
func predictStream(server string, names []string, n, batch, k int, seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, n)
	var sb strings.Builder
	for i := range reqs {
		sb.Reset()
		sb.WriteString(server)
		sb.WriteString("/v1/predict?")
		for b := 0; b < batch; b++ {
			if b > 0 {
				sb.WriteByte('&')
			}
			sb.WriteString("protein=")
			sb.WriteString(url.QueryEscape(names[rng.Intn(len(names))]))
		}
		sb.WriteString("&k=")
		sb.WriteString(strconv.Itoa(k))
		reqs[i].url = sb.String()
	}
	return reqs
}

// queryStream precomputes n /v1/query plan bodies, cycling a seeded mix
// of the engine's plan shapes: whole-interactome top-k scans, degree- and
// annotation-filtered scans, per-category grouped top-k, and pinned
// batches of -batch proteins. The same (artifact, seed, n, batch, k)
// tuple names one exact bulk workload, like the predict stream.
func queryStream(server string, names []string, n, batch, k int, seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, n)
	for i := range reqs {
		var body string
		switch rng.Intn(4) {
		case 0:
			body = fmt.Sprintf(`{"topk":%d}`, k)
		case 1:
			body = fmt.Sprintf(`{"filter":[{"field":"degree","op":"ge","value":%d},{"field":"annotated","op":"eq","bool":%v}],"topk":%d}`,
				1+rng.Intn(4), rng.Intn(2) == 0, k)
		case 2:
			body = fmt.Sprintf(`{"group_by":"category","topk":%d}`, k)
		case 3:
			var sb strings.Builder
			sb.WriteString(`{"filter":[{"field":"protein","op":"in","names":[`)
			for b := 0; b < batch; b++ {
				if b > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(strconv.Quote(names[rng.Intn(len(names))]))
			}
			sb.WriteString(fmt.Sprintf(`]}],"topk":%d}`, k))
			body = sb.String()
		}
		reqs[i] = request{url: server + "/v1/query", body: body}
	}
	return reqs
}

// parseRowCount reads the row_count field out of a /v1/query response
// header prefix; the header precedes the row stream by construction.
func parseRowCount(prefix []byte) int64 {
	const key = `"row_count":`
	i := bytes.Index(prefix, []byte(key))
	if i < 0 {
		return 0
	}
	var n int64
	for _, c := range prefix[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

// doRequest issues one request and returns its wall time plus, for bulk
// queries, the row count the daemon reported; the body is read fully so
// connection reuse works and the measurement covers the complete
// response.
func doRequest(client *http.Client, rq request) (time.Duration, int64, error) {
	start := time.Now()
	var req *http.Request
	var err error
	if rq.body == "" {
		req, err = http.NewRequest(http.MethodGet, rq.url, nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, rq.url, strings.NewReader(rq.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return 0, 0, err
	}
	if rq.sample {
		req.Header.Set("X-Trace-Sample", "1")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	var rows int64
	if rq.body != "" {
		// The result header ({"artifact":…,"columns":…,"row_count":N,…)
		// fits well inside the first 256 bytes; rows follow.
		head := make([]byte, 256)
		hn, herr := io.ReadFull(resp.Body, head)
		if herr == io.EOF || herr == io.ErrUnexpectedEOF {
			herr = nil
		}
		if herr != nil {
			err = herr
		}
		rows = parseRowCount(head[:hn])
	}
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	d := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("%s: status %d", rq.url, resp.StatusCode)
	}
	return d, rows, nil
}

// runClosedLoop drives the stream with c workers, each issuing its next
// request as soon as the previous one completes.
func runClosedLoop(client *http.Client, reqs []request, c int) ([]time.Duration, int64, int64, time.Duration) {
	lat := make([]time.Duration, len(reqs))
	ok := make([]bool, len(reqs))
	var next, rows, errs int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(reqs) {
					return
				}
				d, r, err := doRequest(client, reqs[i])
				if err != nil {
					atomic.AddInt64(&errs, 1)
					continue
				}
				atomic.AddInt64(&rows, r)
				lat[i], ok[i] = d, true
			}
		}()
	}
	wg.Wait()
	return collect(lat, ok), rows, errs, time.Since(start)
}

// runOpenLoop starts request i at i/rate seconds after the run begins,
// whether or not earlier requests have finished; a daemon that cannot keep
// up accumulates queueing delay in the measured latencies instead of
// silently slowing the generator down.
func runOpenLoop(client *http.Client, reqs []request, rate float64) ([]time.Duration, int64, int64, time.Duration) {
	lat := make([]time.Duration, len(reqs))
	ok := make([]bool, len(reqs))
	var rows, errs int64
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range reqs {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, r, err := doRequest(client, reqs[i])
			if err != nil {
				atomic.AddInt64(&errs, 1)
				return
			}
			atomic.AddInt64(&rows, r)
			lat[i], ok[i] = d, true
		}(i)
	}
	wg.Wait()
	return collect(lat, ok), rows, errs, time.Since(start)
}

// collect gathers the successful latencies, sorted ascending.
func collect(lat []time.Duration, ok []bool) []time.Duration {
	out := make([]time.Duration, 0, len(lat))
	for i, d := range lat {
		if ok[i] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile reads the nearest-rank q-quantile from ascending-sorted
// latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summarize renders the run as benchfmt results: latency percentiles in
// ns_per_op, plus a throughput entry whose ns_per_op is wall_ns/requests.
// kind prefixes the suffixes ("query_" for the bulk workload, "" for
// predict), so the two workloads' results never collide in one snapshot.
func summarize(prefix, kind string, sorted []time.Duration, wall time.Duration) []benchfmt.Result {
	n := int64(len(sorted))
	res := func(suffix string, ns float64) benchfmt.Result {
		return benchfmt.Result{Name: prefix + "/" + kind + suffix, Procs: 1, Iterations: n, NsPerOp: ns}
	}
	return []benchfmt.Result{
		res("p50", float64(percentile(sorted, 0.50))),
		res("p90", float64(percentile(sorted, 0.90))),
		res("p99", float64(percentile(sorted, 0.99))),
		res("max", float64(sorted[n-1])),
		res("throughput", float64(wall.Nanoseconds())/float64(n)),
	}
}
