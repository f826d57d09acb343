//go:build e2e

package e2e

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cannedPlans are a pinned top-k, a filtered scan and a grouped top-k.
var cannedPlans = []struct{ name, plan string }{
	{"pinned", `{"filter":[{"field":"protein","op":"in","names":["M0000"]}],"topk":5,"project":["protein","function","name","score"]}`},
	{"scan", `{"filter":[{"field":"degree","op":"ge","value":1}],"topk":1}`},
	{"group", `{"group_by":"category","topk":2}`},
}

// decodeNumbers decodes JSON keeping each number's exact text.
func decodeNumbers(t *testing.T, s string, v any) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(s))
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("decode %s: %v", s, err)
	}
}

// TestQuery runs the canned plans through lamoctl query: row counts hold,
// the pinned plan reproduces /v1/predict to the score bytes, offline
// `lamod query` prints what the daemon serves, and a flag-built plan
// equals its plan-file twin.
func TestQuery(t *testing.T) {
	t.Parallel()
	d := start(t, "lamod", "serve", "-artifact", artPath)
	dir := t.TempDir()
	served := map[string]string{}
	for _, p := range cannedPlans {
		path := filepath.Join(dir, p.name+".json")
		if err := os.WriteFile(path, []byte(p.plan), 0o644); err != nil {
			t.Fatal(err)
		}
		out := run(t, lamoctl, "query", "-server", d.url, "-plan", path)
		served[p.name] = out
		var res struct {
			Columns  []string
			RowCount int `json:"row_count"`
			Rows     [][]any
		}
		decodeNumbers(t, out, &res)
		if res.RowCount != len(res.Rows) || len(res.Rows) == 0 {
			t.Errorf("%s: row_count=%d but %d rows streamed", p.name, res.RowCount, len(res.Rows))
		}
		for _, row := range res.Rows {
			if len(row) != len(res.Columns) {
				t.Errorf("%s: row %v does not match columns %v", p.name, row, res.Columns)
			}
		}
		if offline := run(t, lamod, "query", "-artifact", artPath, "-plan", path); offline != out {
			t.Errorf("%s: offline lamod query differs from the served bytes:\n%s\n%s", p.name, offline, out)
		}
	}

	var pred struct {
		Results []struct {
			Predictions []struct {
				Function json.Number
				Name     string
				Score    json.Number
			}
		}
	}
	decodeNumbers(t, run(t, lamoctl, "predict", "-server", d.url, "-protein", "M0000", "-k", "5"), &pred)
	var pinned struct{ Rows [][]any }
	decodeNumbers(t, served["pinned"], &pinned)
	preds := pred.Results[0].Predictions
	if len(preds) != len(pinned.Rows) {
		t.Fatalf("predict returned %d predictions, the pinned plan %d rows", len(preds), len(pinned.Rows))
	}
	for i, p := range preds {
		want := []any{"M0000", p.Function, p.Name, p.Score}
		for j, cell := range pinned.Rows[i] {
			if cell != want[j] {
				t.Errorf("row %v != prediction %v", pinned.Rows[i], want)
				break
			}
		}
	}
	if string(preds[0].Score) == "" || !strings.Contains(served["pinned"], string(preds[0].Score)) {
		t.Errorf("top score %s is not in the query bytes", preds[0].Score)
	}

	flagBuilt := run(t, lamoctl, "query", "-server", d.url, "-proteins", "M0000", "-topk", "5",
		"-project", "protein,function,name,score")
	if flagBuilt != served["pinned"] {
		t.Errorf("flag-built plan differs from its plan file:\n%s\n%s", flagBuilt, served["pinned"])
	}
	table := run(t, lamoctl, "query", "-server", d.url, "-plan", filepath.Join(dir, "group.json"), "-table")
	contains(t, table, "FUNCTION")
	matches(t, table, `^artifact=`)

	// The daemon counted the plans, and timed them by plan kind.
	matches(t, run(t, lamoctl, "metrics", "-server", d.url),
		`^lamod_queries_total [1-9][0-9]*$`, `^lamod_query_duration_seconds_count\{plan="[a-z_]+"\} [1-9]`)
	d.stop(t)
}
