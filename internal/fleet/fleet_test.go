package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lamofinder/internal/artifact"
	"lamofinder/internal/dataset"
	"lamofinder/internal/label"
	"lamofinder/internal/obs"
	"lamofinder/internal/predict"
	"lamofinder/internal/serve"
)

// saveExample builds the paper-example artifact with the given note and
// writes it to dir. The note is part of the identity digest, so distinct
// notes are distinct artifact versions — the two sides of a rollout.
func saveExample(t testing.TB, dir, note string) (path, digest string) {
	t.Helper()
	pe := dataset.NewPaperExample()
	o := pe.Ontology
	l := label.NewLabelerWithCounts(pe.Corpus, pe.Direct, label.Config{Sigma: 2, MinDirect: 30})
	motifs := l.LabelMotif(pe.Motif)
	task := predict.NewTask(pe.Network, o.NumTerms())
	for p := 0; p < pe.Network.N(); p++ {
		for _, tm := range pe.Corpus.Terms(p) {
			task.Functions[p] = append(task.Functions[p], int(tm))
		}
	}
	names := make([]string, o.NumTerms())
	for tm := range names {
		names[tm] = o.ID(tm)
	}
	art, err := artifact.Build("paper-example", "fleet test fixture",
		task, names, pe.Corpus, pe.Direct, 30, motifs)
	if err != nil {
		t.Fatal(err)
	}
	art.BuildIndex(0)
	art.Note = note
	d, err := art.Digest()
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(dir, strings.ReplaceAll(note, " ", "_")+".lamoart")
	if err := art.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path, d
}

// replica is one live lamod daemon behind an httptest listener.
type replica struct {
	srv *serve.Server
	ts  *httptest.Server
}

func newReplica(t testing.TB, artPath, reloadDir string) *replica {
	t.Helper()
	art, err := artifact.LoadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(art, serve.Config{AllowReload: true, ReloadDir: reloadDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &replica{srv: s, ts: ts}
}

// newTestFleet spins up n replicas over artPath plus a router, with test-
// speed probe timing. The router's probes are started and joined on
// cleanup.
func newTestFleet(t testing.TB, n int, artPath, reloadDir string, tune func(*Config)) ([]*replica, *Router, *httptest.Server) {
	t.Helper()
	reps := make([]*replica, n)
	urls := make([]string, n)
	for i := range reps {
		reps[i] = newReplica(t, artPath, reloadDir)
		urls[i] = reps[i].ts.URL
	}
	cfg := Config{
		Replicas:      urls,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  time.Second,
		BackoffBase:   50 * time.Millisecond,
		HedgeMax:      -1, // hedging off unless a test opts in
		Logger:        obs.NewLogger(io.Discard, obs.LevelOff),
	}
	if tune != nil {
		tune(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.StartProbes()
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return reps, rt, ts
}

func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url) //nolint — test client
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetAffinityRouting: repeated requests for one protein land on one
// replica (consistent hashing), and the router's response is byte-
// identical to asking that fleet's daemons directly.
func TestFleetAffinityRouting(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveExample(t, dir, "version a")
	reps, rt, ts := newTestFleet(t, 3, path, dir, nil)

	query := "/v1/predict?protein=p1&k=5"
	_, want := get(t, reps[0].ts.URL+query)
	for i := 0; i < 30; i++ {
		status, body := get(t, ts.URL+query)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("request %d: routed bytes differ from direct replica bytes", i)
		}
	}
	served := 0
	for _, m := range rt.members {
		if m.requests.Load() > 0 {
			served++
		}
	}
	if served != 1 {
		t.Fatalf("one protein's requests spread over %d replicas, want 1", served)
	}
}

// TestFleetKillReplicaMidLoad: with a replica killed under continuous
// load, every client request still succeeds — retries absorb the failure
// — and the dead replica is ejected, then the fleet keeps serving.
func TestFleetKillReplicaMidLoad(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveExample(t, dir, "version a")
	reps, rt, ts := newTestFleet(t, 3, path, dir, nil)

	queries := make([]string, 0, 22)
	for p := 1; p <= 22; p++ {
		queries = append(queries, fmt.Sprintf("/v1/predict?protein=p%d&k=5", p))
	}

	var stop atomic.Bool
	var failures, successes atomic.Int64
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 5 * time.Second}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				resp, err := client.Get(ts.URL + queries[(i+w)%len(queries)])
				if err != nil {
					failures.Add(1)
					continue
				}
				_, rerr := io.Copy(io.Discard, resp.Body)
				cerr := resp.Body.Close()
				if rerr != nil || cerr != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
					continue
				}
				successes.Add(1)
			}
		}(w)
	}

	// Let load flow to all three, then kill one replica abruptly.
	waitFor(t, 5*time.Second, "warm-up traffic", func() bool { return successes.Load() > 50 })
	reps[1].ts.CloseClientConnections()
	reps[1].ts.Close()

	// The prober must eject it (two failed probes at 25ms apart).
	waitFor(t, 5*time.Second, "eject of killed replica", func() bool {
		for _, m := range rt.members {
			if m.state.Load() == memberEjected {
				return true
			}
		}
		return false
	})
	// Keep serving degraded for a while longer.
	pre := successes.Load()
	waitFor(t, 5*time.Second, "post-kill traffic", func() bool { return successes.Load() > pre+100 })
	stop.Store(true)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d client requests failed across the replica kill; retries must absorb all of them", n)
	}
	if rt.met.retries.Load() == 0 {
		t.Fatal("no retries recorded, yet a replica died under load — the kill was not exercised")
	}
	_, fl := get(t, ts.URL+"/v1/fleet")
	if !strings.Contains(string(fl), `"state":"ejected"`) {
		t.Fatalf("fleet table does not show the ejected replica: %s", fl)
	}
}

// TestFleetRollingRollout is the tentpole e2e: three replicas serving
// version A under continuous load, a rolling rollout to version B, zero
// non-200 responses throughout, the mixed-digest window observable in
// /metrics while it is open and closed (gauge 0, uniform digest B) after,
// and post-rollout routed bytes byte-identical to a fresh single daemon
// serving B.
func TestFleetRollingRollout(t *testing.T) {
	dir := t.TempDir()
	pathA, digA := saveExample(t, dir, "version a")
	pathB, digB := saveExample(t, dir, "version b")
	if digA == digB {
		t.Fatal("fixture notes must produce distinct digests")
	}
	_, rt, ts := newTestFleet(t, 3, pathA, dir, func(c *Config) {
		// Widen the mixed-digest window so the poller below reliably
		// observes it.
		c.RolloutSettle = 60 * time.Millisecond
	})

	queries := make([]string, 0, 22)
	for p := 1; p <= 22; p++ {
		queries = append(queries, fmt.Sprintf("/v1/predict?protein=p%d&k=5", p))
	}

	var stop, sawMixedGauge atomic.Bool
	var failures atomic.Int64
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 5 * time.Second}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				resp, err := client.Get(ts.URL + queries[(i+w)%len(queries)])
				if err != nil {
					failures.Add(1)
					continue
				}
				_, rerr := io.Copy(io.Discard, resp.Body)
				cerr := resp.Body.Close()
				if rerr != nil || cerr != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
			}
		}(w)
	}
	// A poller watching the Prometheus endpoint for the mixed-digest gauge.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_, b := get(t, ts.URL+"/metrics")
			if strings.Contains(string(b), "lamod_fleet_mixed_digest 1") {
				sawMixedGauge.Store(true)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	body, err := json.Marshal(RolloutRequest{Artifact: pathB, Digest: digB})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(ts.URL+"/v1/admin/rollout", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollout: status %d: %s", resp.StatusCode, rb)
	}
	var res RolloutResult
	if err := json.Unmarshal(rb, &res); err != nil {
		t.Fatal(err)
	}
	if res.Artifact != digB || len(res.Steps) != 3 {
		t.Fatalf("rollout result %+v, want 3 steps to %s", res, digB)
	}
	for _, st := range res.Steps {
		if st.Previous != digA || st.Artifact != digB {
			t.Fatalf("step %+v, want previous %s artifact %s", st, digA, digB)
		}
	}
	stop.Store(true)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed requests during the rolling rollout, want 0", n)
	}
	if !sawMixedGauge.Load() {
		t.Fatal("lamod_fleet_mixed_digest never read 1 during the rollout window")
	}
	if rt.met.rollouts.Load() != 1 {
		t.Fatalf("rollouts counter = %d, want 1", rt.met.rollouts.Load())
	}

	// After the rollout: gauge back to 0, fleet uniform on B.
	waitFor(t, 2*time.Second, "uniform digest after rollout", func() bool {
		uniform, mixed := rt.mixedDigest()
		return !mixed && uniform == digB
	})
	_, prom := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(prom), "lamod_fleet_mixed_digest 0") {
		t.Fatalf("mixed-digest gauge did not clear: %s", prom)
	}

	// Routed bytes must equal a fresh single daemon serving B.
	artB, err := artifact.LoadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	freshSrv, err := serve.New(artB, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := httptest.NewServer(freshSrv.Handler())
	defer fresh.Close()
	for _, q := range queries {
		_, want := get(t, fresh.URL+q)
		status, got := get(t, ts.URL+q)
		if status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("post-rollout %s: status %d, bytes differ from fresh serve of B", q, status)
		}
	}

	// Healthz carries the uniform digest and full readiness.
	_, hz := get(t, ts.URL+"/v1/healthz")
	if !strings.Contains(string(hz), digB) || !strings.Contains(string(hz), `"ready":3`) {
		t.Fatalf("fleet healthz after rollout: %s", hz)
	}
}

// TestFleetHedging: when a key's owner stalls, the hedged duplicate on
// the next replica answers and the client never sees the stall.
func TestFleetHedging(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveExample(t, dir, "version a")

	// Two real replicas; the slow one sits behind a delaying proxy.
	fast := newReplica(t, path, dir)
	slowBase := newReplica(t, path, dir)
	stall := 300 * time.Millisecond
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/predict") {
			time.Sleep(stall)
		}
		resp, err := http.Get(slowBase.ts.URL + r.URL.RequestURI()) //nolint — test proxy
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
		Replicas:      []string{fast.ts.URL, slow.URL},
		ProbeInterval: 25 * time.Millisecond,
		HedgeMin:      time.Millisecond,
		HedgeMax:      20 * time.Millisecond,
		Logger:        obs.NewLogger(io.Discard, obs.LevelOff),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.StartProbes()
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Find a protein owned by the slow replica.
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

	start := time.Now()
	status, _ := get(t, ts.URL+query)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("hedged request: status %d", status)
	}
	if elapsed >= stall {
		t.Fatalf("hedged request took %s, at least the full stall %s — hedge did not fire", elapsed, stall)
	}
	if rt.met.hedges.Load() == 0 || rt.met.hedgeWins.Load() == 0 {
		t.Fatalf("hedges=%d hedgeWins=%d, want both > 0",
			rt.met.hedges.Load(), rt.met.hedgeWins.Load())
	}
}

// TestFleetMetricsShape: the JSON snapshot self-identifies as a fleet
// and carries upstream latency plus the replica table.
// TestGatewayOversizedBodyRejected: both gateway routes that read a POST
// body refuse one over serve.MaxBody with 413, as every daemon route does
// (serve's TestOversizedBodyRejected), while a body of exactly
// serve.MaxBody bytes is still read.
func TestGatewayOversizedBodyRejected(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveExample(t, dir, "version a")
	_, _, ts := newTestFleet(t, 1, path, dir, nil)
	// body is a JSON object padded to n bytes with an ignored field.
	body := func(n int) string {
		const open, close = `{"pad":"`, `"}`
		return open + strings.Repeat("a", n-len(open)-len(close)) + close
	}
	post := func(url, body string) (int, []byte) {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	for _, route := range []string{"/v1/predict", "/v1/admin/rollout"} {
		status, resp := post(ts.URL+route, body(serve.MaxBody+1))
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body got status %d: %s", route, status, resp)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(resp, &e); err != nil || !strings.Contains(e.Error, "too large") {
			t.Fatalf("%s: error body %s (%v)", route, resp, err)
		}
		if status, resp := post(ts.URL+route, body(serve.MaxBody)); status == http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: body at the cap refused: %s", route, resp)
		}
	}
}

func TestFleetMetricsShape(t *testing.T) {
	dir := t.TempDir()
	path, dig := saveExample(t, dir, "version a")
	_, rt, ts := newTestFleet(t, 2, path, dir, nil)

	waitFor(t, 2*time.Second, "probe digest", func() bool {
		uniform, _ := rt.mixedDigest()
		return uniform == dig
	})
	for i := 0; i < 5; i++ {
		if status, _ := get(t, ts.URL+"/v1/predict?protein=p1&k=3"); status != http.StatusOK {
			t.Fatalf("predict status %d", status)
		}
	}
	_, body := get(t, ts.URL+"/v1/metrics")
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Fleet {
		t.Fatal("snapshot fleet marker false")
	}
	if snap.Artifact != dig || snap.MixedDigest {
		t.Fatalf("snapshot artifact %q mixed=%v, want uniform %s", snap.Artifact, snap.MixedDigest, dig)
	}
	if snap.Upstream.Count == 0 {
		t.Fatal("no upstream latency recorded after routed traffic")
	}
	if len(snap.Replicas) != 2 {
		t.Fatalf("snapshot lists %d replicas, want 2", len(snap.Replicas))
	}
	if _, ok := snap.Latency["predict"]; !ok {
		t.Fatalf("snapshot latency map lacks predict: %v", snap.Latency)
	}

	// A daemon's snapshot decoded with the fleet shape stays Fleet=false,
	// which is how a client tells the two apart.
	var daemonAsFleet Snapshot
	if err := json.Unmarshal([]byte(`{"requests":1}`), &daemonAsFleet); err != nil {
		t.Fatal(err)
	}
	if daemonAsFleet.Fleet {
		t.Fatal("daemon-shaped snapshot must not decode as a fleet")
	}
}
