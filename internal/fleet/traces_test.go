package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lamofinder/internal/obs"
)

func getWithID(t *testing.T, url, id string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestHedgeSpanAttribution is the hedge e2e gate: with one replica
// stalled, a traced predict request must show — in the gateway's own
// trace tree — the winning hedge attempt, the canceled primary attempt
// with its cancellation reason, and one shared trace ID across both
// attempts; and the winning replica's trace, fetched through the
// gateway's merge endpoint, must nest under the winning attempt's span.
func TestHedgeSpanAttribution(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveExample(t, dir, "version a")

	// Two real replicas; the slow one sits behind a stalling proxy that
	// forwards the trace headers, exactly as a slow-but-honest replica
	// would behave.
	fast := newReplica(t, path, dir)
	slowBase := newReplica(t, path, dir)
	stall := 300 * time.Millisecond
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/predict") {
			time.Sleep(stall)
		}
		req, err := http.NewRequest(r.Method, slowBase.ts.URL+r.URL.RequestURI(), r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	defer slow.Close()

	rt, err := New(Config{
		Replicas:         []string{fast.ts.URL, slow.URL},
		ProbeInterval:    25 * time.Millisecond,
		HedgeMin:         time.Millisecond,
		HedgeMax:         20 * time.Millisecond,
		TraceSampleEvery: -1, // forced-only: the request's ID is the opt-in
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.StartProbes()
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Find a protein owned by the slow replica, so the primary attempt
	// stalls and the hedge (on the fast replica) wins.
	slowIdx := -1
	for i, m := range rt.ring.Members() {
		if m == slow.URL {
			slowIdx = i
		}
	}
	query := ""
	for p := 1; p <= 22; p++ {
		k := fmt.Sprintf("p%d", p)
		if rt.ring.Owner(k) == slowIdx {
			query = "/v1/predict?protein=" + k + "&k=5"
			break
		}
	}
	if query == "" {
		t.Fatal("no protein hashes to the slow replica; fixture assumption broken")
	}

	const traceID = "hedge-e2e-1"
	resp, body := getWithID(t, ts.URL+query, traceID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-Id"); got != traceID {
		t.Fatalf("gateway echoed %q, want the client ID %q", got, traceID)
	}
	if rt.met.hedgeWins.Load() == 0 {
		t.Fatalf("hedge did not win (hedges=%d wins=%d); the assertions below assume it did",
			rt.met.hedges.Load(), rt.met.hedgeWins.Load())
	}

	tresp, tbody := getWithID(t, ts.URL+"/v1/traces/"+traceID, "")
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("gateway trace fetch: status %d: %s", tresp.StatusCode, tbody)
	}
	var gt gatewayTrace
	if err := json.Unmarshal(tbody, &gt); err != nil {
		t.Fatalf("gateway trace does not parse: %v\n%s", err, tbody)
	}
	if gt.Trace != traceID {
		t.Fatalf("trace ID %q, want %q", gt.Trace, traceID)
	}
	if len(gt.Spans) == 0 || gt.Spans[0].Name != "predict" {
		t.Fatalf("root span wrong: %+v", gt.Spans)
	}

	// Both attempts live in the one gateway trace — that IS the shared
	// trace ID: primary "attempt" on the slow replica, canceled when the
	// hedge won; "hedge" on the fast replica, completed.
	var primary, hedge *obs.SpanOut
	for i := range gt.Spans {
		sp := &gt.Spans[i]
		switch sp.Name {
		case "attempt":
			primary = sp
		case "hedge":
			hedge = sp
		}
	}
	if primary == nil || hedge == nil {
		t.Fatalf("trace lacks attempt+hedge spans: %+v", gt.Spans)
	}
	if !strings.Contains(primary.Detail, slow.URL) || !strings.Contains(primary.Detail, "canceled: lost race") {
		t.Fatalf("primary attempt not marked canceled with reason: %+v", primary)
	}
	if hedge.Detail != fast.ts.URL {
		t.Fatalf("hedge span detail %q, want the fast replica %q", hedge.Detail, fast.ts.URL)
	}
	if primary.Parent != gt.Spans[0].ID || hedge.Parent != gt.Spans[0].ID {
		t.Fatalf("attempt spans not parented to the root: %+v %+v", primary, hedge)
	}

	// The winning replica's trace merged in under the hedge's span index:
	// its handler spans nest under the exact attempt that caused them.
	var fastSide *replicaTrace
	for i := range gt.Replicas {
		if gt.Replicas[i].Replica == fast.ts.URL {
			fastSide = &gt.Replicas[i]
		}
	}
	if fastSide == nil {
		t.Fatalf("winning replica missing from merge: %+v", gt.Replicas)
	}
	if fastSide.RemoteParent != hedge.ID {
		t.Fatalf("replica trace remote_parent = %d, want the hedge span %d", fastSide.RemoteParent, hedge.ID)
	}
	if len(fastSide.Spans) == 0 || fastSide.Spans[0].Name != "predict" {
		t.Fatalf("replica-side spans wrong: %+v", fastSide.Spans)
	}
}

// TestGatewayMintsOneID is the trace-fragmentation regression test: a
// request arriving with no X-Request-Id gets exactly one gateway-minted
// ID, which is echoed to the client and delivered to the replica — the
// replica must NOT mint its own.
func TestGatewayMintsOneID(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveExample(t, dir, "version a")
	reps, _, ts := newTestFleet(t, 2, path, dir, func(c *Config) {
		c.TraceSampleEvery = 1 // sample everything: the trace proves delivery
	})

	resp, body := getWithID(t, ts.URL+"/v1/predict?protein=p1&k=3", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Request-Id")
	if !strings.HasPrefix(id, "gw-") {
		t.Fatalf("client sees %q, want a gateway-minted gw-* ID", id)
	}

	// Exactly one replica handled it, and its trace store holds the
	// gateway's ID — proof the replica adopted rather than minted.
	found := 0
	for _, rep := range reps {
		tresp, _ := getWithID(t, rep.ts.URL+"/v1/traces/"+id, "")
		if tresp.StatusCode == http.StatusOK {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("gateway ID %q found on %d replicas, want exactly 1", id, found)
	}
}

// TestProbeRoundTraces: with 1-in-1 sampling, probe rounds land in the
// gateway's trace store with one child span per probed replica.
func TestProbeRoundTraces(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveExample(t, dir, "version a")
	_, rt, ts := newTestFleet(t, 2, path, dir, func(c *Config) {
		c.TraceSampleEvery = 1
	})
	waitFor(t, 2*time.Second, "a probe-round trace", func() bool {
		for _, s := range rt.tracer.Store().List(0) {
			if s.Root == "probe-round" && s.Spans >= 3 {
				return true
			}
		}
		return false
	})
	_, body := getWithID(t, ts.URL+"/v1/traces?n=5", "")
	if !strings.Contains(string(body), "probe-round") {
		t.Fatalf("trace listing lacks probe rounds:\n%s", body)
	}
}
