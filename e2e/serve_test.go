//go:build e2e

package e2e

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServe drives one daemon: the build's stage trace, health, predict
// with trace-ID echo, metrics, the Prometheus exposition, the SIGTERM
// drain and the access log it flushes.
func TestServe(t *testing.T) {
	t.Parallel()
	// -stats prints the stage table. A "0s" wall for census or labeling
	// means the recorder lost the stage, which would blind build timing.
	for _, stage := range []string{"census", "labeling"} {
		m := regexp.MustCompile(`(?m)^` + stage + `\s+(\S+)`).FindStringSubmatch(buildOut)
		if m == nil || m[1] == "0s" {
			t.Errorf("build -stats: stage %s missing or 0s:\n%s", stage, buildOut)
		}
	}
	contains(t, run(t, lamoctl, "inspect", "-artifact", artPath), `"build_stats"`, `"stage": "ranking"`)

	d := start(t, "lamod", "serve", "-artifact", artPath)
	contains(t, run(t, lamoctl, "health", "-server", d.url), `"status":"ok"`)
	predict := []string{"predict", "-server", d.url, "-protein", "M0000", "-k", "5"}
	first := run(t, lamoctl, predict...)
	contains(t, first, `"protein":"M0000"`)
	// predict -trace exits 1 unless the daemon echoes the ID.
	run(t, lamoctl, append(predict, "-trace", "e2e-trace-42")...)
	if again := run(t, lamoctl, predict...); again != first {
		t.Errorf("the same predict answered different bytes:\n%s\n%s", first, again)
	}

	run(t, lamoctl, "metrics", "-server", d.url)
	matches(t, run(t, lamoctl, "metrics", "-ratios", "-server", d.url), `^requests=`, `predict_p50_us=`)

	// One malformed exposition line breaks a real scraper.
	prom := run(t, lamoctl, "prom", "-server", d.url)
	line := regexp.MustCompile(`^(#|[a-z_]+(\{[^}]*\})? [0-9.e+-]+$)`)
	for _, l := range strings.Split(strings.TrimSuffix(prom, "\n"), "\n") {
		if !line.MatchString(l) {
			t.Errorf("malformed exposition line %q", l)
		}
	}
	matches(t, prom, `^lamod_requests_total `)
	contains(t, prom, `lamod_request_duration_seconds_bucket{route="predict",le="+Inf"}`)

	d.stop(t)
	// The drain flushes the access-log ring.
	contains(t, d.logText(t), `"trace":"e2e-trace-42"`, `"msg":"access"`)
}

// TestLoad sends closed-loop, open-loop and query traffic to a fresh
// daemon; every response must be 200, and /v1/metrics must count each
// protein requested and each plan sent.
func TestLoad(t *testing.T) {
	t.Parallel()
	contains(t, buildOut, "indexed (format v4)")
	d := start(t, "lamod", "serve", "-artifact", artPath)
	contains(t, d.logText(t), "index scoring")

	proteins := inspect(t, artPath).Proteins
	name := func(i int) string { return fmt.Sprintf("M%04d", i%proteins) }
	predictURL := d.url + "/v1/predict?k=5"

	var mu sync.Mutex
	var errs []error
	record := func(err error) {
		if err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	}
	// closedLoop sends n requests from 4 workers, each waiting for its
	// answer before it sends the next.
	closedLoop := func(n int, send func(i int) error) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < n; i += 4 {
					record(send(i))
				}
			}()
		}
		wg.Wait()
	}

	closedLoop(300, func(i int) error {
		return fetch(http.MethodGet, predictURL+"&protein="+name(2*i)+"&protein="+name(2*i+1), "")
	})
	// The open loop sends at 500/s whether or not earlier answers came.
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i) * time.Second / 500)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			record(fetch(http.MethodGet, predictURL+"&protein="+name(7*i), ""))
		}()
	}
	wg.Wait()
	closedLoop(100, func(i int) error {
		return fetch(http.MethodPost, d.url+"/v1/query",
			`{"filter":[{"field":"protein","op":"in","names":["`+name(i)+`"]}],"topk":3}`)
	})
	for _, err := range errs {
		t.Error(err)
	}

	var snap struct{ Predictions, Queries int64 }
	if err := json.Unmarshal([]byte(run(t, lamoctl, "metrics", "-server", d.url)), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Predictions != 300*2+100 || snap.Queries != 100 {
		t.Errorf("metrics count %d predictions and %d queries, want 700 and 100", snap.Predictions, snap.Queries)
	}
	d.stop(t)
}
