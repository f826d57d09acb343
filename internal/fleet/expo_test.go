package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"lamofinder/internal/artifact"
	"lamofinder/internal/obs"
	"lamofinder/internal/serve"
)

var update = flag.Bool("update", false, "rewrite the exposition goldens under testdata/")

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/fleet -update)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: %d lines, want %d", path, len(gl), len(wl))
	}
}

// exposeSequence is the fixed request sequence the exposition goldens are
// recorded after: predicts (one for an unknown protein), healthz, motifs,
// one plan per query kind, a traces listing and an unknown path. Client
// request IDs force-sample the predicts and plans, so a daemon's latency
// histograms carry exemplars. queryStatus is what base answers a plan with
// (the gateway does not route /v1/query).
func exposeSequence(t *testing.T, base string, queryStatus int) {
	t.Helper()
	do := func(method, path, id, body string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	do(http.MethodGet, "/v1/predict?protein=p1&k=3", "expo-1", "", http.StatusOK)
	do(http.MethodGet, "/v1/predict?protein=p2&protein=p5", "expo-2", "", http.StatusOK)
	do(http.MethodGet, "/v1/predict?protein=nosuch", "expo-3", "", http.StatusNotFound)
	do(http.MethodGet, "/v1/healthz", "", "", http.StatusOK)
	do(http.MethodGet, "/v1/motifs", "", "", http.StatusOK)
	for i, plan := range []string{`{}`, `{"topk":2}`, `{"group_by":"category","topk":1}`} {
		do(http.MethodPost, "/v1/query", fmt.Sprintf("expo-plan-%d", i), plan, queryStatus)
	}
	do(http.MethodGet, "/v1/traces", "", "", http.StatusOK)
	do(http.MethodGet, "/v1/nosuchpath", "", "", http.StatusNotFound)
}

var (
	replicaAddr = regexp.MustCompile(`http://127\.0\.0\.1:[0-9]+`)
	exemplar    = regexp.MustCompile(` # (\{trace_id="[^"]*"\}) \S+$`)
	// runtimeGauges carry process state, not the request sequence.
	runtimeGauges = map[string]bool{
		"lamod_goroutines": true, "lamod_heap_alloc_bytes": true,
		"lamod_gc_pause_seconds_total": true, "lamod_gc_cycles_total": true,
	}
)

// maskAddrs replaces each replica address with its position in addrs
// (the router's sorted member order).
func maskAddrs(body string, addrs []string) string {
	return replicaAddr.ReplaceAllStringFunc(body, func(a string) string {
		for i, m := range addrs {
			if m == a {
				return fmt.Sprintf("replica-%d", i)
			}
		}
		return a
	})
}

// normalizeProm masks what timing and port choice decide in a text
// exposition: bucket counts, _sum values, runtime gauges, per-replica
// counts and replica addresses. An exemplar keeps its trace ID but moves
// to its histogram's +Inf bucket with a masked value, so the golden pins
// how many there are, not where the sample fell.
func normalizeProm(body []byte, addrs []string) []byte {
	var out strings.Builder
	pending := ""
	for _, line := range strings.Split(strings.TrimSuffix(maskAddrs(string(body), addrs), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			out.WriteString(line + "\n")
			continue
		}
		if m := exemplar.FindStringSubmatchIndex(line); m != nil {
			pending = line[m[2]:m[3]]
			line = line[:m[0]]
		}
		series, value := line, ""
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			series, value = line[:i], line[i+1:]
		}
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		suffix := ""
		switch {
		case strings.HasSuffix(name, "_bucket"):
			value = "_"
			if strings.Contains(series, `le="+Inf"`) && pending != "" {
				suffix = " # " + pending + " _"
				pending = ""
			}
		case strings.HasSuffix(name, "_sum"), runtimeGauges[name],
			strings.HasSuffix(name, "_count") && strings.Contains(series, `replica="`):
			value = "_"
		}
		out.WriteString(series + " " + value + suffix + "\n")
	}
	return []byte(out.String())
}

// normalizeJSON re-encodes a metrics body with sorted keys (so key order
// is not pinned), masking every microsecond value (latency sums and
// percentiles), per-replica request counts and replica addresses.
func normalizeJSON(t *testing.T, body []byte, addrs []string) []byte {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(maskAddrs(string(body), addrs)))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("metrics body is not JSON: %v\n%s", err, body)
	}
	maskJSON(v)
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func maskJSON(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			switch {
			case strings.Contains(k, "micros"):
				x[k] = "_"
			case k == "replicas":
				for _, r := range e.([]any) {
					rep := r.(map[string]any)
					for _, c := range []string{"requests", "errors", "inflight"} {
						rep[c] = "_"
					}
					maskJSON(rep)
				}
			default:
				maskJSON(e)
			}
		}
	case []any:
		for _, e := range x {
			maskJSON(e)
		}
	}
}

// TestExpositionGoldens pins the daemon's /metrics (with and without
// exemplars) and /v1/metrics, and the gateway's /metrics, /v1/metrics and
// Router.Metrics() over two replicas, after one fixed request sequence.
func TestExpositionGoldens(t *testing.T) {
	dir := t.TempDir()
	path, dig := saveExample(t, dir, "version a")

	for _, exemplars := range []bool{false, true} {
		art, err := artifact.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := serve.New(art, serve.Config{PromExemplars: exemplars})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		exposeSequence(t, ts.URL, http.StatusOK)
		_, prom := get(t, ts.URL+"/metrics")
		if exemplars {
			checkGolden(t, "daemon_metrics_exemplars.prom", normalizeProm(prom, nil))
		} else {
			checkGolden(t, "daemon_metrics.prom", normalizeProm(prom, nil))
			_, js := get(t, ts.URL+"/v1/metrics")
			checkGolden(t, "daemon_metrics.json", normalizeJSON(t, js, nil))
		}
		ts.Close()
		s.Close()
	}

	_, rt, gw := newTestFleet(t, 2, path, dir, nil)
	waitFor(t, 2*time.Second, "both replica digests", func() bool {
		for _, m := range rt.members {
			if m.getDigest() != dig {
				return false
			}
		}
		return true
	})
	addrs := rt.Members()
	exposeSequence(t, gw.URL, http.StatusNotFound)
	_, prom := get(t, gw.URL+"/metrics")
	checkGolden(t, "gateway_metrics.prom", normalizeProm(prom, addrs))
	_, js := get(t, gw.URL+"/v1/metrics")
	checkGolden(t, "gateway_metrics.json", normalizeJSON(t, js, addrs))
	snap, err := json.Marshal(rt.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "gateway_router_metrics.json", normalizeJSON(t, snap, addrs))
}

// typeLines lists each series of a text exposition with its declared
// type, sorted.
func typeLines(body []byte) []string {
	var out []string
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			out = append(out, f[2]+" "+f[3])
		}
	}
	sort.Strings(out)
	return out
}

// referenceTables returns the series and types listed in the tables under
// README's "Metrics reference", one sorted list per table.
func referenceTables(t *testing.T) [][]string {
	t.Helper()
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(readme), "### Metrics reference\n")
	if !ok {
		t.Fatal(`README has no "### Metrics reference" section`)
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	row := regexp.MustCompile("^\\| `([a-z_]+)` \\| ([a-z]+) \\|")
	var tables [][]string
	inTable := false
	for _, line := range strings.Split(sec, "\n") {
		m := row.FindStringSubmatch(line)
		switch {
		case m != nil && !inTable:
			tables = append(tables, nil)
			inTable = true
			fallthrough
		case m != nil:
			tables[len(tables)-1] = append(tables[len(tables)-1], m[1]+" "+m[2])
		case !strings.HasPrefix(line, "|"):
			inTable = false
		}
	}
	for _, tb := range tables {
		sort.Strings(tb)
	}
	return tables
}

// TestMetricsReferenceMatchesExposition: README's two metric tables list
// exactly the series, with the same types, that the daemon's and the
// gateway's /metrics declare, so the hand-kept reference cannot drift from
// the registry declarations.
func TestMetricsReferenceMatchesExposition(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveExample(t, dir, "version a")
	rep := newReplica(t, path, dir)
	_, _, gw := newTestFleet(t, 1, path, dir, nil)
	_, daemonProm := get(t, rep.ts.URL+"/metrics")
	_, gatewayProm := get(t, gw.URL+"/metrics")

	tables := referenceTables(t)
	if len(tables) != 2 {
		t.Fatalf("README metrics reference has %d tables, want 2 (daemon, gateway)", len(tables))
	}
	for i, exp := range []struct {
		who  string
		body []byte
	}{{"daemon", daemonProm}, {"gateway", gatewayProm}} {
		got := typeLines(exp.body)
		if strings.Join(got, "\n") != strings.Join(tables[i], "\n") {
			t.Fatalf("README's %s table disagrees with its /metrics:\nREADME:\n  %s\n/metrics:\n  %s",
				exp.who, strings.Join(tables[i], "\n  "), strings.Join(got, "\n  "))
		}
	}
}

var (
	// promSample is one sample line of the text format, each label value
	// escaped: only \\, \" and \n may follow a backslash.
	promSample = regexp.MustCompile(`^[a-z_]+(\{[a-z_]+="(?:[^"\\\n]|\\[\\"n])*"(?:,[a-z_]+="(?:[^"\\\n]|\\[\\"n])*")*\})? [0-9.e+-]+$`)
	promLabel  = regexp.MustCompile(`([a-z_]+)="((?:[^"\\\n]|\\[\\"n])*)"`)
	unescape   = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
)

// TestGatewayPromHostileDigest: the gateway copies each replica's healthz
// artifact string into the digest label, so the label's content comes from
// another process. A value holding a quote, a backslash, a newline and a
// closing brace must still give a line-valid /metrics whose digest label
// unescapes back to the original string.
func TestGatewayPromHostileDigest(t *testing.T) {
	hostile := "a\"b\\c\nd} 1"
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			http.NotFound(w, r)
			return
		}
		_ = json.NewEncoder(w).Encode(probeHealth{Status: "ok", Ready: true, Artifact: hostile})
	}))
	defer fake.Close()
	rt, err := New(Config{
		Replicas:      []string{fake.URL},
		ProbeInterval: 25 * time.Millisecond,
		Logger:        obs.NewLogger(io.Discard, obs.LevelOff),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.StartProbes()
	defer rt.Close()
	gw := httptest.NewServer(rt.Handler())
	defer gw.Close()
	waitFor(t, 2*time.Second, "hostile digest probed", func() bool {
		return rt.members[0].getDigest() == hostile
	})

	_, body := get(t, gw.URL+"/metrics")
	var digests []string
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("exposition line does not parse: %q\n%s", line, body)
		}
		for _, l := range promLabel.FindAllStringSubmatch(line, -1) {
			if l[1] == "digest" {
				digests = append(digests, unescape.Replace(l[2]))
			}
		}
	}
	if len(digests) != 1 || digests[0] != hostile {
		t.Fatalf("digest labels %q, want exactly [%q]", digests, hostile)
	}
}
