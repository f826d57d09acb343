package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lamofinder/internal/artifact"
	"lamofinder/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenStats is the fixed one-stage build trace the golden fixtures
// carry. Stats sit outside the identity digest, so any fixed value works;
// a fixed one keeps the encoded fixtures reproducible.
func goldenStats() []obs.StageStat {
	return []obs.StageStat{{Name: "ranking", Wall: time.Millisecond, Items: 1, Workers: 1}}
}

// goldenExample is the paper-example fixture the predict goldens are
// recorded against: with the fixed build trace, round-tripped through its
// encoded form.
func goldenExample(t testing.TB) *artifact.Artifact {
	t.Helper()
	art, _, _ := exampleModel(t)
	art.Stats = goldenStats()
	return reload(t, art)
}

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
		t.Fatalf("%v (regenerate with go test ./internal/serve -update)", err)
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

func post(t testing.TB, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestPredictGolden pins the full /v1/predict bodies for every protein of
// the paper example at k=0 and k=3, as single GETs and as one batch GET
// naming every protein, byte for byte.
func TestPredictGolden(t *testing.T) {
	art := goldenExample(t)
	ts := newTestServer(t, art, Config{})
	var out bytes.Buffer
	record := func(req string, status int, body []byte) {
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req, status, body)
		}
		fmt.Fprintf(&out, "%s\n", req)
		out.Write(body)
	}
	names := make([]string, art.Graph.N())
	for p := range names {
		names[p] = art.Graph.Name(p)
	}
	for _, k := range []int{0, 3} {
		for _, name := range names {
			q := fmt.Sprintf("/v1/predict?protein=%s&k=%d", name, k)
			status, body := get(t, ts.URL+q)
			record("GET "+q, status, body)
		}
		q := "/v1/predict?protein=" + strings.Join(names, "&protein=") + fmt.Sprintf("&k=%d", k)
		status, body := get(t, ts.URL+q)
		record("GET "+q, status, body)
	}
	checkGolden(t, "predict_example.golden", out.Bytes())
}

// goldenPlans cover every plan shape over the 1877-protein fixture: a
// bare scan, each filter field, per-protein top-k, per-category top-k and
// a pinned protein set.
var goldenPlans = []string{
	`{}`,
	`{"scan":"proteins","filter":[{"field":"degree","op":"ge","value":6}]}`,
	`{"filter":[{"field":"degree","op":"lt","value":3}],"topk":2,"project":["protein","degree","function","score"]}`,
	`{"filter":[{"field":"score","op":"ge","value":0.5}]}`,
	`{"filter":[{"field":"annotated","op":"eq","bool":false}],"topk":3}`,
	`{"filter":[{"field":"protein","op":"in","names":["M0000","M0001","M0500","M1876"]}]}`,
	`{"filter":[{"field":"protein","op":"in","names":["M0042"]}],"topk":5,"project":["protein","function","name","score"]}`,
	`{"topk":1}`,
	`{"group_by":"category","topk":5}`,
	`{"group_by":"category","topk":3,"filter":[{"field":"annotated","op":"ne","bool":true},{"field":"degree","op":"gt","value":2}],"project":["function","name","protein","degree","score"]}`,
}

// TestQueryGolden pins the /v1/query bodies of goldenPlans over the MIPS
// fixture by SHA-256 and length (the bodies run to tens of kilobytes).
func TestQueryGolden(t *testing.T) {
	ts := newTestServer(t, reload(t, mipsArt()), Config{})
	var out bytes.Buffer
	for _, plan := range goldenPlans {
		status, body := postQuery(t, ts.URL, plan)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", plan, status, body)
		}
		sum := sha256.Sum256(body)
		fmt.Fprintf(&out, "%s %d %s\n", hex.EncodeToString(sum[:]), len(body), plan)
	}
	checkGolden(t, "query_mips.golden", out.Bytes())
}
