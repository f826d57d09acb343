// Command lamoctl is the client for a running lamod daemon, plus an offline
// artifact inspector.
//
// Usage:
//
//	lamoctl predict -protein NAME [-protein NAME ...] [-k N] [-trace ID] [-server URL]
//	lamoctl query   [-plan FILE] [-topk N] [-group-by category] [-min-degree N]
//	                [-max-degree N] [-min-score X] [-annotated BOOL]
//	                [-proteins A,B] [-project COLS] [-table] [-explain] [-server URL]
//	lamoctl trace   [ID] [-n N] [-table] [-server URL]
//	lamoctl motifs  [-server URL]
//	lamoctl health  [-server URL]
//	lamoctl metrics [-ratios] [-server URL]
//	lamoctl prom    [-server URL]
//	lamoctl fleet   [-table] [-server URL]
//	lamoctl rollout -artifact PATH [-digest HEX] [-server URL]
//	lamoctl inspect -artifact FILE
//
// Network subcommands print the daemon's JSON response verbatim, so output
// is byte-deterministic whenever the daemon's is; health and metrics
// -ratios additionally lead with an "artifact=<digest>" line, because the
// served artifact's identity is the first thing an operator checks during
// a rollout. metrics -ratios derives the error rate client-side — from
// one decoded snapshot, so the numerator and denominator always belong to
// the same instant. prom prints the Prometheus text exposition. predict
// -trace attaches an X-Request-Id and verifies the daemon echoes it.
// query posts a bulk plan — from -plan file.json or assembled from the
// plan flags — to /v1/query and prints the streamed JSON verbatim, or an
// aligned table with -table, or the per-operator EXPLAIN ANALYZE stats
// with -explain. trace reads the server's span-trace store: listing the
// most recent sampled traces, or fetching one by ID — against a gateway
// the fetch merges every replica's same-ID span tree, and -table renders
// the whole cross-process tree as indented rows.
// fleet and rollout talk to a lamod gateway: fleet prints the membership
// table (per-replica state, digest, latency), rollout drives a rolling
// artifact swap across every replica. inspect reads an artifact file
// directly, without a server, including any build-stage stats the build
// recorded.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"lamofinder/internal/artifact"
	"lamofinder/internal/fleet"
	"lamofinder/internal/obs"
	"lamofinder/internal/query"
	"lamofinder/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		errln(stderr, "usage: lamoctl <predict|query|trace|motifs|health|metrics|prom|fleet|rollout|inspect> [flags]")
		return 2
	}
	switch args[0] {
	case "predict":
		return runPredict(args[1:], stdout, stderr)
	case "query":
		return runQuery(args[1:], stdout, stderr)
	case "trace":
		return runTrace(args[1:], stdout, stderr)
	case "motifs":
		return runGet(args[1:], "/v1/motifs", stdout, stderr)
	case "health":
		return runHealth(args[1:], stdout, stderr)
	case "metrics":
		return runMetrics(args[1:], stdout, stderr)
	case "prom":
		return runGet(args[1:], "/metrics", stdout, stderr)
	case "fleet":
		return runFleet(args[1:], stdout, stderr)
	case "rollout":
		return runRollout(args[1:], stdout, stderr)
	case "inspect":
		return runInspect(args[1:], stdout, stderr)
	default:
		errf(stderr, "lamoctl: unknown subcommand %q (want predict, query, trace, motifs, health, metrics, prom, fleet, rollout, or inspect)\n", args[0])
		return 2
	}
}

// errf and errln write diagnostics to the (injected, testable) stderr; a
// failed diagnostic write has nowhere to be reported.
func errf(w io.Writer, format string, args ...any) { _, _ = fmt.Fprintf(w, format, args...) }
func errln(w io.Writer, args ...any)               { _, _ = fmt.Fprintln(w, args...) }

// client is the only HTTP client lamoctl uses: explicit, with a deadline,
// never the process-global http.DefaultClient.
func client(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout}
}

// send performs one request and returns the response body and header, or
// a non-zero exit code after reporting transport/HTTP errors (including
// the server's JSON error bodies) to stderr. Every network subcommand goes
// through it. A non-nil body is sent as JSON; a non-empty requestID rides
// in X-Request-Id.
func send(c *http.Client, method, u string, body []byte, requestID string, stderr io.Writer) ([]byte, http.Header, int) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		errf(stderr, "lamoctl: %v\n", err)
		return nil, nil, 1
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	resp, err := c.Do(req)
	if err != nil {
		errf(stderr, "lamoctl: %v\n", err)
		return nil, nil, 1
	}
	out, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		errf(stderr, "lamoctl: read response: %v\n", err)
		return nil, nil, 1
	}
	if resp.StatusCode != http.StatusOK {
		errf(stderr, "lamoctl: server returned %s: %s", resp.Status, out)
		return nil, nil, 1
	}
	return out, resp.Header, 0
}

// getBody GETs u through send and returns the response body.
func getBody(c *http.Client, u string, stderr io.Writer) ([]byte, int) {
	body, _, code := send(c, http.MethodGet, u, nil, "", stderr)
	return body, code
}

// fetch GETs url and writes the response body through verbatim.
func fetch(c *http.Client, u string, stdout, stderr io.Writer) int {
	body, code := getBody(c, u, stderr)
	if code != 0 {
		return code
	}
	_, _ = stdout.Write(body)
	return 0
}

type serverFlags struct {
	server  *string
	timeout *time.Duration
}

func addServerFlags(fs *flag.FlagSet) serverFlags {
	return serverFlags{
		server:  fs.String("server", "http://127.0.0.1:8077", "lamod base URL"),
		timeout: fs.Duration("timeout", 10*time.Second, "request deadline"),
	}
}

func runGet(args []string, path string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamoctl "+path, flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := addServerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		errf(stderr, "lamoctl: unexpected arguments %q\n", fs.Args())
		return 2
	}
	return fetch(client(*sf.timeout), *sf.server+path, stdout, stderr)
}

// runHealth prints /v1/healthz with a leading "artifact=<digest>
// ready=<...>" line: mid-rollout, the digest is the first thing worth
// reading, and against a gateway the same line shows the fleet-uniform
// digest (empty while mixed). The verbatim JSON body follows.
func runHealth(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamoctl health", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := addServerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		errf(stderr, "lamoctl health: unexpected arguments %q\n", fs.Args())
		return 2
	}
	body, code := getBody(client(*sf.timeout), *sf.server+"/v1/healthz", stderr)
	if code != 0 {
		return code
	}
	// Ready is a bool on a daemon and a count on a gateway; decode loosely
	// and render whichever arrived.
	var hz struct {
		Artifact string `json:"artifact"`
		Ready    any    `json:"ready"`
	}
	if jerr := json.Unmarshal(body, &hz); jerr == nil {
		_, _ = fmt.Fprintf(stdout, "artifact=%s ready=%v\n", hz.Artifact, hz.Ready)
	}
	_, _ = stdout.Write(body)
	return 0
}

// runMetrics prints /v1/metrics verbatim, or with -ratios derives the
// error rate. All ratios come from ONE decoded snapshot struct, so
// numerator and denominator are the same point-in-time read — fetching
// the endpoint twice (or deriving from separately scraped values) can
// tear: a request landing between the two reads yields rates over
// mismatched totals, and early versions of this command did exactly that.
func runMetrics(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamoctl metrics", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := addServerFlags(fs)
	ratios := fs.Bool("ratios", false, "derive the error rate from a single snapshot instead of printing raw JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		errf(stderr, "lamoctl metrics: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if !*ratios {
		return fetch(client(*sf.timeout), *sf.server+"/v1/metrics", stdout, stderr)
	}
	body, code := getBody(client(*sf.timeout), *sf.server+"/v1/metrics", stderr)
	if code != 0 {
		return code
	}
	var snap serve.MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		errf(stderr, "lamoctl: decode metrics: %v\n", err)
		return 1
	}
	_, _ = fmt.Fprintf(stdout, "artifact=%s\n", snap.Artifact)
	_, _ = fmt.Fprintf(stdout, "requests=%d errors=%d error_rate=%s\n",
		snap.Requests, snap.Errors, ratio(snap.Errors, snap.Requests))
	_, _ = fmt.Fprintf(stdout, "predictions=%d\n", snap.Predictions)
	_, _ = fmt.Fprintf(stdout, "access_log_dropped=%d\n", snap.AccessLogDropped)
	if lat, ok := snap.Latency["predict"]; ok {
		_, _ = fmt.Fprintf(stdout, "predict_p50_us=%d predict_p90_us=%d predict_p99_us=%d\n",
			lat.P50Micros, lat.P90Micros, lat.P99Micros)
	}
	return 0
}

// runFleet prints a gateway's /v1/fleet membership table — verbatim JSON
// by default, or aligned columns with -table.
func runFleet(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamoctl fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := addServerFlags(fs)
	table := fs.Bool("table", false, "render the membership table as aligned columns instead of JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		errf(stderr, "lamoctl fleet: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if !*table {
		return fetch(client(*sf.timeout), *sf.server+"/v1/fleet", stdout, stderr)
	}
	body, code := getBody(client(*sf.timeout), *sf.server+"/v1/fleet", stderr)
	if code != 0 {
		return code
	}
	var st fleet.FleetStatus
	if err := json.Unmarshal(body, &st); err != nil {
		errf(stderr, "lamoctl: decode fleet status: %v\n", err)
		return 1
	}
	_, _ = fmt.Fprintf(stdout, "artifact=%s mixed_digest=%v replicas=%d\n",
		st.Artifact, st.MixedDigest, len(st.Replicas))
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	_, _ = fmt.Fprintln(tw, "REPLICA\tSTATE\tDIGEST\tINFLIGHT\tREQUESTS\tERRORS\tP50_US\tP99_US")
	for _, r := range st.Replicas {
		digest := r.Digest
		if len(digest) > 12 {
			digest = digest[:12]
		}
		_, _ = fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			r.Replica, r.State, digest, r.Inflight, r.Requests, r.Errors,
			r.P50Micros, r.P99Micros)
	}
	if err := tw.Flush(); err != nil {
		errf(stderr, "lamoctl: %v\n", err)
		return 1
	}
	return 0
}

// runRollout drives a gateway's rolling artifact swap and prints the
// gateway's JSON result. The -timeout default is raised: a rollout
// serializes N drain+reload+verify cycles.
func runRollout(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamoctl rollout", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://127.0.0.1:8070", "lamod gateway base URL")
	timeout := fs.Duration("timeout", 5*time.Minute, "request deadline for the whole rollout")
	path := fs.String("artifact", "", "artifact path as seen by each replica (required)")
	digest := fs.String("digest", "", "expected artifact digest; empty lets the first replica pin it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		errf(stderr, "lamoctl rollout: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *path == "" {
		errln(stderr, "lamoctl rollout: -artifact is required")
		fs.Usage()
		return 2
	}
	body, err := json.Marshal(fleet.RolloutRequest{Artifact: *path, Digest: *digest})
	if err != nil {
		errf(stderr, "lamoctl rollout: %v\n", err)
		return 1
	}
	out, _, code := send(client(*timeout), http.MethodPost, *server+"/v1/admin/rollout", body, "", stderr)
	if code != 0 {
		return code
	}
	_, _ = stdout.Write(out)
	return 0
}

// ratio renders num/den to three decimals, or "-" when the denominator is
// zero (no observations, not a zero rate).
func ratio(num, den int64) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(num)/float64(den))
}

// repeatedString collects repeated -protein flags in order.
type repeatedString []string

func (r *repeatedString) String() string { return fmt.Sprint([]string(*r)) }
func (r *repeatedString) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func runPredict(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamoctl predict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := addServerFlags(fs)
	var proteins repeatedString
	fs.Var(&proteins, "protein", "protein name to score (repeatable)")
	k := fs.Int("k", 0, "top-k functions to return (0 = all)")
	trace := fs.String("trace", "", "X-Request-Id to attach; the response must echo it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		errf(stderr, "lamoctl predict: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if len(proteins) == 0 {
		errln(stderr, "lamoctl predict: at least one -protein is required")
		fs.Usage()
		return 2
	}
	if *k < 0 {
		errln(stderr, "lamoctl predict: -k must be non-negative")
		return 2
	}
	q := url.Values{}
	for _, p := range proteins {
		q.Add("protein", p)
	}
	if *k > 0 {
		q.Set("k", fmt.Sprint(*k))
	}
	u := *sf.server + "/v1/predict?" + q.Encode()
	body, header, code := send(client(*sf.timeout), http.MethodGet, u, nil, *trace, stderr)
	if code != 0 {
		return code
	}
	// The daemon echoes valid client IDs so one ID links the client call,
	// the response and the daemon's access-log line; a mismatch means the
	// trace is broken (or the ID was invalid and got replaced).
	if got := header.Get("X-Request-Id"); *trace != "" && got != *trace {
		errf(stderr, "lamoctl: trace id not echoed: sent %q, got %q\n", *trace, got)
		return 1
	}
	_, _ = stdout.Write(body)
	return 0
}

// runQuery posts a bulk prediction plan to /v1/query. The plan comes from
// -plan file.json or is assembled from the plan flags; the daemon's JSON
// response streams through verbatim (so output is byte-deterministic), or
// -table renders the rows as aligned columns for human eyes, or -explain
// asks the daemon for per-operator execution stats and prints those as a
// table instead of the rows.
func runQuery(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamoctl query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := addServerFlags(fs)
	table := fs.Bool("table", false, "render result rows as aligned columns instead of JSON")
	explain := fs.Bool("explain", false, "request per-operator execution stats and print the operator table")
	pf := query.AddPlanFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		errf(stderr, "lamoctl query: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *explain && *table {
		errln(stderr, "lamoctl query: -explain and -table are mutually exclusive: -table prints the result rows, -explain prints the operator stats — pick one")
		return 2
	}
	plan, err := pf.Plan()
	if err != nil {
		errf(stderr, "lamoctl query: %v\n", err)
		return 2
	}
	if *explain {
		plan.Explain = true
	}
	body, err := json.Marshal(plan)
	if err != nil {
		errf(stderr, "lamoctl query: %v\n", err)
		return 1
	}
	out, _, code := send(client(*sf.timeout), http.MethodPost, *sf.server+"/v1/query", body, "", stderr)
	if code != 0 {
		return code
	}
	if *explain {
		return writeExplainTable(out, stdout, stderr)
	}
	if !*table {
		_, _ = stdout.Write(out)
		return 0
	}
	return writeQueryTable(out, stdout, stderr)
}

// writeExplainTable renders the explain tail of a /v1/query response as
// an aligned operator table. Row counts are deterministic (plan + model
// decide them); busy_us is CPU occupancy summed across batch workers, so
// under parallel execution the column can legitimately sum past wall_us.
func writeExplainTable(body []byte, stdout, stderr io.Writer) int {
	var res struct {
		Artifact string       `json:"artifact"`
		RowCount int          `json:"row_count"`
		Explain  *query.Stats `json:"explain"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		errf(stderr, "lamoctl query: decode response: %v\n", err)
		return 1
	}
	if res.Explain == nil {
		errln(stderr, "lamoctl query: response carries no explain stats (is the daemon older than the plan's \"explain\" field?)")
		return 1
	}
	_, _ = fmt.Fprintf(stdout, "artifact=%s rows=%d wall_us=%d\n",
		res.Artifact, res.RowCount, res.Explain.WallUS)
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	_, _ = fmt.Fprintln(tw, "OP\tROWS_IN\tROWS_OUT\tBUSY_US")
	for _, o := range res.Explain.Ops {
		_, _ = fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", o.Op, o.RowsIn, o.RowsOut, o.BusyUS)
	}
	if err := tw.Flush(); err != nil {
		errf(stderr, "lamoctl: %v\n", err)
		return 1
	}
	return 0
}

// runTrace reads a server's span-trace store. With no argument it lists
// the most recent sampled traces (GET /v1/traces); with a trace ID it
// fetches that trace (GET /v1/traces/{id}) — against a gateway the fetch
// also carries every replica-side span tree recorded under the same ID.
// -table renders either response as aligned rows; for a single trace that
// is the indented span tree, with replica trees spliced in under the
// gateway attempt span that caused them.
func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamoctl trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := addServerFlags(fs)
	n := fs.Int("n", 0, "max traces to list (0 = server default)")
	table := fs.Bool("table", false, "render the trace(s) as aligned rows instead of JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Accept the trace ID before or after the flags (flag parsing stops at
	// the first positional): lift the ID and re-parse what follows it.
	id := ""
	if fs.NArg() > 0 {
		id = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return 2
		}
		if fs.NArg() > 0 {
			errf(stderr, "lamoctl trace: want at most one trace ID, got also %q\n", fs.Args())
			return 2
		}
	}
	c := client(*sf.timeout)
	if id == "" {
		u := *sf.server + "/v1/traces"
		if *n > 0 {
			u += "?n=" + fmt.Sprint(*n)
		}
		if !*table {
			return fetch(c, u, stdout, stderr)
		}
		body, code := getBody(c, u, stderr)
		if code != 0 {
			return code
		}
		return writeTraceListTable(body, stdout, stderr)
	}
	u := *sf.server + "/v1/traces/" + url.PathEscape(id)
	if !*table {
		return fetch(c, u, stdout, stderr)
	}
	body, code := getBody(c, u, stderr)
	if code != 0 {
		return code
	}
	return writeTraceTable(body, stdout, stderr)
}

// writeTraceListTable renders GET /v1/traces (newest first) as columns.
func writeTraceListTable(body []byte, stdout, stderr io.Writer) int {
	var list struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		errf(stderr, "lamoctl trace: decode listing: %v\n", err)
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	_, _ = fmt.Fprintln(tw, "TRACE\tROOT\tSPANS\tDROPPED\tDUR_US")
	for _, s := range list.Traces {
		_, _ = fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\n", s.Trace, s.Root, s.Spans, s.Dropped, s.DurUS)
	}
	if err := tw.Flush(); err != nil {
		errf(stderr, "lamoctl: %v\n", err)
		return 1
	}
	return 0
}

// replicaSide is the gateway merge's per-replica entry; absent (empty)
// in a daemon's response, which lets one decode shape cover both.
type replicaSide struct {
	Replica      string        `json:"replica"`
	RemoteParent int32         `json:"remote_parent"`
	Spans        []obs.SpanOut `json:"spans"`
}

// writeTraceTable renders one fetched trace as an indented span tree. It
// accepts both the daemon shape (remote_parent + spans) and the gateway
// shape (spans + replicas): each replica's tree is spliced in directly
// under the gateway span its remote_parent names, so a hedged request
// reads top-to-bottom as routing decision, attempts, and the winning
// replica's handler/operator spans in their causal place.
func writeTraceTable(body []byte, stdout, stderr io.Writer) int {
	var tr struct {
		Trace        string        `json:"trace"`
		RemoteParent *int32        `json:"remote_parent"`
		Dropped      int32         `json:"dropped_spans"`
		Spans        []obs.SpanOut `json:"spans"`
		Replicas     []replicaSide `json:"replicas"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		errf(stderr, "lamoctl trace: decode trace: %v\n", err)
		return 1
	}
	_, _ = fmt.Fprintf(stdout, "trace=%s spans=%d", tr.Trace, len(tr.Spans))
	if tr.RemoteParent != nil && *tr.RemoteParent >= 0 {
		_, _ = fmt.Fprintf(stdout, " remote_parent=%d", *tr.RemoteParent)
	}
	if tr.Dropped > 0 {
		_, _ = fmt.Fprintf(stdout, " dropped=%d", tr.Dropped)
	}
	_, _ = fmt.Fprintln(stdout)
	byParent := make(map[int32][]int)
	for i := range tr.Replicas {
		rp := tr.Replicas[i].RemoteParent
		byParent[rp] = append(byParent[rp], i)
	}
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	_, _ = fmt.Fprintln(tw, "SPAN\tSTART_US\tDUR_US\tROWS\tDETAIL")
	writeSpanRows(tw, tr.Spans, 0, func(id int32, depth int) {
		for _, i := range byParent[id] {
			rep := tr.Replicas[i]
			_, _ = fmt.Fprintf(tw, "%sreplica %s\t\t\t\t\n", indent(depth+1), rep.Replica)
			writeSpanRows(tw, rep.Spans, depth+2, nil)
		}
	})
	if err := tw.Flush(); err != nil {
		errf(stderr, "lamoctl: %v\n", err)
		return 1
	}
	return 0
}

func indent(depth int) string { return strings.Repeat("  ", depth) }

// writeSpanRows prints spans as indented rows. Spans arrive in creation
// order, so every parent precedes its children and one forward pass
// resolves depths. after, when non-nil, runs once per span so the caller
// can splice nested replica trees in causal position.
func writeSpanRows(tw *tabwriter.Writer, spans []obs.SpanOut, base int, after func(id int32, depth int)) {
	depth := make(map[int32]int, len(spans))
	for _, sp := range spans {
		d := base
		if pd, ok := depth[sp.Parent]; ok {
			d = pd + 1
		}
		depth[sp.ID] = d
		rows := ""
		if sp.RowsIn != 0 || sp.RowsOut != 0 {
			rows = fmt.Sprintf("%d/%d", sp.RowsIn, sp.RowsOut)
		}
		_, _ = fmt.Fprintf(tw, "%s%s\t%d\t%d\t%s\t%s\n",
			indent(d), sp.Name, sp.StartUS, sp.DurUS, rows, sp.Detail)
		if after != nil {
			after(sp.ID, d)
		}
	}
}

// writeQueryTable renders a /v1/query response as aligned columns. Cells
// decode as json.Number so scores print with the daemon's exact digits
// instead of a float64 round trip's.
func writeQueryTable(body []byte, stdout, stderr io.Writer) int {
	var res struct {
		Artifact string            `json:"artifact"`
		Columns  []string          `json:"columns"`
		RowCount int               `json:"row_count"`
		Rows     []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		errf(stderr, "lamoctl query: decode response: %v\n", err)
		return 1
	}
	_, _ = fmt.Fprintf(stdout, "artifact=%s rows=%d\n", res.Artifact, res.RowCount)
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	for i, col := range res.Columns {
		if i > 0 {
			_, _ = fmt.Fprint(tw, "\t")
		}
		_, _ = fmt.Fprint(tw, strings.ToUpper(col))
	}
	_, _ = fmt.Fprintln(tw)
	for _, raw := range res.Rows {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		var cells []any
		if err := dec.Decode(&cells); err != nil {
			errf(stderr, "lamoctl query: decode row: %v\n", err)
			return 1
		}
		for i, cell := range cells {
			if i > 0 {
				_, _ = fmt.Fprint(tw, "\t")
			}
			_, _ = fmt.Fprintf(tw, "%v", cell)
		}
		_, _ = fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		errf(stderr, "lamoctl: %v\n", err)
		return 1
	}
	return 0
}

// inspectSummary is lamoctl's offline view of an artifact file.
type inspectSummary struct {
	Artifact     string        `json:"artifact"`
	Format       int           `json:"format"`
	Dataset      string        `json:"dataset"`
	Note         string        `json:"note,omitempty"`
	Proteins     int           `json:"proteins"`
	Interactions int           `json:"interactions"`
	Functions    int           `json:"functions"`
	Terms        int           `json:"terms"`
	BorderTerms  int           `json:"border_terms"`
	MinDirect    int           `json:"min_direct"`
	Motifs       int           `json:"motifs"`
	Coverage     int           `json:"coverage"`
	BuildStats   []inspectStat `json:"build_stats,omitempty"`
}

// inspectStat is one recorded build stage. Durations are microseconds for
// consistency with the serving metrics.
type inspectStat struct {
	Stage       string `json:"stage"`
	WallMicros  int64  `json:"wall_micros"`
	Items       int64  `json:"items"`
	Workers     int    `json:"workers"`
	BusyMicros  int64  `json:"busy_micros,omitempty"`
	UtilPercent int    `json:"util_percent,omitempty"`
}

func runInspect(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lamoctl inspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("artifact", "", "artifact file to inspect (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		errf(stderr, "lamoctl inspect: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *path == "" {
		errln(stderr, "lamoctl inspect: -artifact is required")
		fs.Usage()
		return 2
	}
	art, err := artifact.LoadFile(*path)
	if err != nil {
		errf(stderr, "lamoctl inspect: %v\n", err)
		return 1
	}
	digest, err := art.Digest()
	if err != nil {
		errf(stderr, "lamoctl inspect: %v\n", err)
		return 1
	}
	stats := make([]inspectStat, 0, len(art.Stats))
	for _, st := range art.Stats {
		is := inspectStat{
			Stage:      st.Name,
			WallMicros: st.Wall.Microseconds(),
			Items:      st.Items,
			Workers:    st.Workers,
			BusyMicros: st.Busy.Microseconds(),
		}
		if st.Busy > 0 && st.Wall > 0 && st.Workers > 0 {
			is.UtilPercent = int(100 * st.Busy.Nanoseconds() /
				(st.Wall.Nanoseconds() * int64(st.Workers)))
		}
		stats = append(stats, is)
	}
	sum := inspectSummary{
		Artifact:     digest,
		Format:       artifact.Version,
		Dataset:      art.Dataset,
		Note:         art.Note,
		Proteins:     art.Graph.N(),
		Interactions: art.Graph.M(),
		Functions:    art.NumFunctions,
		Terms:        art.Ontology.NumTerms(),
		BorderTerms:  len(art.Border),
		MinDirect:    art.MinDirect,
		Motifs:       len(art.Motifs),
		Coverage:     art.Coverage(),
		BuildStats:   stats,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		errf(stderr, "lamoctl inspect: %v\n", err)
		return 1
	}
	_, _ = stdout.Write(buf.Bytes())
	return 0
}
