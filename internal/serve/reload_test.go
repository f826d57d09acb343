package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lamofinder/internal/artifact"
)

// saveExample writes the paper-example artifact to dir with the given
// note. The note rides inside the identity digest, so two notes yield two
// distinct artifact versions of the same underlying model — exactly what
// a rolling rollout swaps between.
func saveExample(t testing.TB, dir, note string) (path, digest string) {
	t.Helper()
	art, _, _ := exampleModel(t)
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

// newHTTPTestServer mounts an already-constructed Server (newTestServer
// builds its own; reload tests need handles on the Server too).
func newHTTPTestServer(t testing.TB, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postReload(t testing.TB, url, artPath, digest string) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(reloadRequest{Artifact: artPath, Digest: digest})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/admin/reload", "application/json", bytes.NewReader(body)) //nolint — test client
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestReloadSwapsModelAtomically is the single-replica half of the rollout
// story: after POST /v1/admin/reload the daemon serves the new artifact's
// bytes — byte-identical to a fresh daemon over that artifact — and
// healthz reports the new digest with ready true.
func TestReloadSwapsModelAtomically(t *testing.T) {
	dir := t.TempDir()
	pathA, digA := saveExample(t, dir, "version a")
	pathB, digB := saveExample(t, dir, "version b")
	if digA == digB {
		t.Fatalf("distinct notes must yield distinct digests, both %s", digA)
	}

	artA, err := artifact.LoadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(artA, Config{AllowReload: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, s)
	query := "/v1/predict?protein=p1&protein=p5&k=5"

	status, before := get(t, ts.URL+query)
	if status != http.StatusOK {
		t.Fatalf("pre-reload predict: status %d: %s", status, before)
	}
	if !strings.Contains(string(before), digA) {
		t.Fatalf("pre-reload response does not carry digest %s: %s", digA, before)
	}

	status, body := postReload(t, ts.URL, pathB, digB)
	if status != http.StatusOK {
		t.Fatalf("reload: status %d: %s", status, body)
	}
	var res ReloadResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Previous != digA || res.Artifact != digB {
		t.Fatalf("reload result %+v, want previous %s artifact %s", res, digA, digB)
	}
	if got := s.Digest(); got != digB {
		t.Fatalf("Digest() = %s after reload, want %s", got, digB)
	}
	if !s.ready.Load() {
		t.Fatal("server not ready after completed reload")
	}

	// Served bytes must be byte-identical to a fresh daemon over B.
	artB, err := artifact.LoadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(artB, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tsFresh := newHTTPTestServer(t, fresh)
	_, want := get(t, tsFresh.URL+query)
	_, after := get(t, ts.URL+query)
	if !bytes.Equal(after, want) {
		t.Fatalf("post-reload bytes differ from fresh serve of B:\n%s\nvs\n%s", after, want)
	}

	// healthz reflects the new identity and readiness.
	_, hz := get(t, ts.URL+"/v1/healthz")
	if !strings.Contains(string(hz), `"ready":true`) || !strings.Contains(string(hz), digB) {
		t.Fatalf("healthz after reload: %s", hz)
	}
}

// TestReloadDigestMismatchKeepsOldModel: a digest-verified reload against
// the wrong file must refuse the swap and keep serving the old model.
func TestReloadDigestMismatchKeepsOldModel(t *testing.T) {
	dir := t.TempDir()
	pathA, digA := saveExample(t, dir, "version a")
	pathB, _ := saveExample(t, dir, "version b")

	artA, err := artifact.LoadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(artA, Config{AllowReload: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, s)

	// Ask for B's file but demand A's digest: refused, old model intact.
	status, body := postReload(t, ts.URL, pathB, digA)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched reload: status %d: %s", status, body)
	}
	if got := s.Digest(); got != digA {
		t.Fatalf("digest changed to %s after refused reload, want %s", got, digA)
	}
	if !s.ready.Load() {
		t.Fatal("server must return to ready after a refused reload")
	}
}

// TestReloadPathOutsideReloadDir: with ReloadDir set, paths outside it are
// rejected before any file I/O.
func TestReloadPathOutsideReloadDir(t *testing.T) {
	dir := t.TempDir()
	outside := t.TempDir()
	pathA, _ := saveExample(t, dir, "version a")
	pathOut, digOut := saveExample(t, outside, "version b")

	artA, err := artifact.LoadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(artA, Config{AllowReload: true, ReloadDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, s)
	status, body := postReload(t, ts.URL, pathOut, digOut)
	if status != http.StatusForbidden {
		t.Fatalf("outside-dir reload: status %d: %s", status, body)
	}
	status, body = postReload(t, ts.URL, filepath.Join(dir, "..", filepath.Base(pathOut)), digOut)
	if status != http.StatusForbidden {
		t.Fatalf("dot-dot reload: status %d: %s", status, body)
	}
}

// TestReloadDisabledByDefault: without AllowReload the admin route does
// not exist at all.
func TestReloadDisabledByDefault(t *testing.T) {
	dir := t.TempDir()
	pathA, digA := saveExample(t, dir, "version a")
	artA, err := artifact.LoadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(artA, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, s)
	status, _ := postReload(t, ts.URL, pathA, digA)
	if status != http.StatusNotFound {
		t.Fatalf("reload on a non-reload server: status %d, want 404", status)
	}
}

// TestReloadInFlightConflict: a second reload while one is running gets
// 409 and changes nothing.
func TestReloadInFlightConflict(t *testing.T) {
	dir := t.TempDir()
	pathA, _ := saveExample(t, dir, "version a")
	artA, err := artifact.LoadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(artA, Config{AllowReload: true})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate an in-flight reload by holding the gate.
	s.reloading.Store(true)
	if _, err := s.Reload(pathA, ""); err != ErrReloadInFlight {
		t.Fatalf("Reload under in-flight gate: %v, want ErrReloadInFlight", err)
	}
	s.reloading.Store(false)
	ts := newHTTPTestServer(t, s)
	s.reloading.Store(true)
	status, body := postReload(t, ts.URL, pathA, "")
	if status != http.StatusConflict {
		t.Fatalf("concurrent reload: status %d: %s", status, body)
	}
	s.reloading.Store(false)
}

// TestReadinessFalseWhileReloading pins the liveness/readiness split: the
// healthz body flips ready:false while a reload is in flight and back to
// ready:true after, while status stays "ok" throughout (the process is
// alive either way — that is what a router drains on).
func TestReadinessFalseWhileReloading(t *testing.T) {
	dir := t.TempDir()
	pathA, _ := saveExample(t, dir, "version a")
	artA, err := artifact.LoadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(artA, Config{AllowReload: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, s)
	_, hz := get(t, ts.URL+"/v1/healthz")
	if !strings.Contains(string(hz), `"status":"ok"`) || !strings.Contains(string(hz), `"ready":true`) {
		t.Fatalf("healthz at rest: %s", hz)
	}
	// The reload window is too short to observe over HTTP reliably, so pin
	// the readiness gate directly: this is the exact state the handler is
	// in between Reload's ready.Store(false) and its deferred restore.
	s.ready.Store(false)
	_, hz = get(t, ts.URL+"/v1/healthz")
	if !strings.Contains(string(hz), `"status":"ok"`) || !strings.Contains(string(hz), `"ready":false`) {
		t.Fatalf("healthz mid-reload: %s", hz)
	}
	s.ready.Store(true)
}

// TestReloadUnderLoadZeroErrors hammers /v1/predict from several
// goroutines while the artifact is swapped back and forth; every response
// must be 200 and must be byte-identical to one of the two versions'
// canonical responses — never an error, never a cross-version hybrid.
func TestReloadUnderLoadZeroErrors(t *testing.T) {
	dir := t.TempDir()
	pathA, digA := saveExample(t, dir, "version a")
	pathB, digB := saveExample(t, dir, "version b")
	artA, err := artifact.LoadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(artA, Config{AllowReload: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, s)
	query := "/v1/predict?protein=p1&protein=p5&k=5"

	// Canonical bytes for both versions, from fresh servers.
	canon := make(map[string]bool, 2)
	for _, p := range []string{pathA, pathB} {
		art, err := artifact.LoadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(art, Config{})
		if err != nil {
			t.Fatal(err)
		}
		tsf := newHTTPTestServer(t, fresh)
		_, b := get(t, tsf.URL+query)
		canon[string(b)] = true
	}

	var stop atomic.Bool
	var failures atomic.Int64
	var wg sync.WaitGroup
	client := &http.Client{}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := client.Get(ts.URL + query)
				if err != nil {
					failures.Add(1)
					continue
				}
				var buf bytes.Buffer
				_, rerr := buf.ReadFrom(resp.Body)
				cerr := resp.Body.Close()
				if rerr != nil || cerr != nil || resp.StatusCode != http.StatusOK || !canon[buf.String()] {
					failures.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		path, dig := pathB, digB
		if i%2 == 1 {
			path, dig = pathA, digA
		}
		if _, err := s.Reload(path, dig); err != nil {
			t.Errorf("reload %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed or hybrid responses during reload churn", n)
	}
	if fmt.Sprint(s.Digest()) != digA {
		t.Fatalf("final digest %s, want %s", s.Digest(), digA)
	}
}
