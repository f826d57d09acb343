//go:build unix

package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestSlowReloadOutlivesRequestTimeout: a reload that takes longer than
// RequestTimeout still answers 200, because /v1/admin/reload carries no
// request deadline. The artifact path is a FIFO whose writer waits before
// sending the file, so the load itself stalls.
func TestSlowReloadOutlivesRequestTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	dir := t.TempDir()
	path, digest := saveExample(t, dir, "slow reload")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fifo := filepath.Join(dir, "slow.lamoart")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	s, err := New(indexedModel(t), Config{RequestTimeout: timeout, AllowReload: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, s)
	written := make(chan error, 1)
	go func() {
		time.Sleep(4 * timeout)
		// Opening the FIFO for writing blocks until the reload opens it.
		written <- os.WriteFile(fifo, data, 0o600)
	}()
	start := time.Now()
	status, body := postReload(t, ts.URL, fifo, digest)
	if status != http.StatusOK {
		t.Fatalf("reload taking %v with a %v request timeout: status %d: %s", time.Since(start), timeout, status, body)
	}
	select {
	case err := <-written:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the reload answered without reading the artifact")
	}
	if got := s.Digest(); got != digest {
		t.Fatalf("serving %s after the reload, want %s", got, digest)
	}
}
