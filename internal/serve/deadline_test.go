package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strings"
	"testing"
	"time"

	"lamofinder/internal/artifact"
)

// handlerRunning reports whether any goroutine is inside the named Server
// method.
func handlerRunning(method string) bool {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Contains(string(buf[:n]), "serve.(*Server)."+method)
}

// TestStalledBodyEndsAtDeadline: a POST /v1/query whose body stops
// arriving ends, with a non-200 answer or a closed connection, within
// RequestTimeout plus slack. Once the client closes, no handler goroutine
// is left reading the body.
func TestStalledBodyEndsAtDeadline(t *testing.T) {
	const timeout = 200 * time.Millisecond
	const slack = 2 * time.Second
	s, err := New(indexedModel(t), Config{RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	// The header promises 64 body bytes; only the first 8 ever arrive.
	if _, err := io.WriteString(conn, "POST /v1/query HTTP/1.1\r\nHost: lamod\r\n"+
		"Content-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"topk\":"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(timeout + slack)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	elapsed := time.Since(start)
	var ne net.Error
	switch {
	case err == nil && resp.StatusCode == http.StatusOK:
		t.Fatalf("stalled body answered 200 after %v", elapsed)
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatalf("stalled body still open after %v (timeout %v)", elapsed, timeout)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	gone := time.Now().Add(slack)
	for handlerRunning("handleQuery") {
		if time.Now().After(gone) {
			t.Fatal("handleQuery still running after the client closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadlineRearmedOnKeepAlive: one keep-alive connection, left idle for
// longer than RequestTimeout between requests, still gets a 200 for
// predict, for /v1/admin/reload and for pprof. A request's deadline is
// armed when that request starts, not left over from the one before.
func TestDeadlineRearmedOnKeepAlive(t *testing.T) {
	const timeout = 100 * time.Millisecond
	path, digest := saveExample(t, t.TempDir(), "keep alive")
	art, err := artifact.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(art, Config{RequestTimeout: timeout, AllowReload: true, EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	reload, err := json.Marshal(reloadRequest{Artifact: path, Digest: digest})
	if err != nil {
		t.Fatal(err)
	}
	const predict = "/v1/predict?protein=p1&k=3"
	for i, c := range []struct{ method, path, body string }{
		{http.MethodGet, predict, ""},
		{http.MethodGet, predict, ""},
		{http.MethodPost, "/v1/admin/reload", string(reload)},
		{http.MethodGet, predict, ""},
		{http.MethodGet, "/debug/pprof/cmdline", ""},
		{http.MethodGet, predict, ""},
	} {
		if i > 0 {
			time.Sleep(3 * timeout)
		}
		reused := false
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		})
		req, err := http.NewRequestWithContext(ctx, c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("request %d %s %s: %v", i, c.method, c.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("request %d %s %s: read body: %v", i, c.method, c.path, err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d %s %s after an idle connection: status %d: %s", i, c.method, c.path, resp.StatusCode, body)
		}
		if i > 0 && !reused {
			t.Fatalf("request %d %s %s opened a new connection; the test needs the idle one reused", i, c.method, c.path)
		}
	}
}
