package query

import (
	"bytes"
	"encoding/json"
	"testing"
)

// explainResponse is the decoded body of an explain-bearing response.
type explainResponse struct {
	Artifact string            `json:"artifact"`
	Columns  []string          `json:"columns"`
	RowCount int               `json:"row_count"`
	Rows     []json.RawMessage `json:"rows"`
	Explain  *Stats            `json:"explain"`
}

func TestExplainRowsByteIdentical(t *testing.T) {
	v := mipsView()
	for _, base := range determinismPlans() {
		plain := *base
		plain.Explain = false
		withExplain := *base
		withExplain.Explain = true

		plainBody, _ := run(t, v, &plain, 2)

		res, stats, fe := ExecuteStats(v, &withExplain, 2, false)
		if fe != nil {
			t.Fatalf("execute with explain: %v", fe)
		}
		if stats == nil || res.explain != stats {
			t.Fatal("explain plan returned no stats")
		}
		body := res.Bytes()
		var dec explainResponse
		if err := json.Unmarshal(body, &dec); err != nil {
			t.Fatalf("explain response does not parse: %v\n%s", err, body)
		}
		if dec.Explain == nil || len(dec.Explain.Ops) == 0 {
			t.Fatalf("explain field missing from body:\n%s", body)
		}
		// Strip the explain tail: everything before `,"explain":` must be
		// the plain body minus its closing `}\n`.
		idx := bytes.Index(body, []byte(`,"explain":`))
		if idx < 0 {
			t.Fatalf("explain tail not found in body:\n%s", body)
		}
		wantPrefix := bytes.TrimSuffix(plainBody, []byte("}\n"))
		if !bytes.Equal(body[:idx], wantPrefix) {
			t.Fatalf("rows perturbed by explain:\nplain:  %s\nexplain: %s", wantPrefix, body[:idx])
		}
	}
}

func TestExplainOperatorCounts(t *testing.T) {
	v := mipsView()
	plan := &Plan{TopK: 3, Explain: true}
	res, stats, fe := ExecuteStats(v, plan, 4, false)
	if fe != nil {
		t.Fatalf("execute: %v", fe)
	}
	byOp := map[string]OpStat{}
	for _, o := range stats.Ops {
		byOp[o.Op] = o
	}
	for _, name := range []string{"scan", "filter", "emit"} {
		if _, ok := byOp[name]; !ok {
			t.Fatalf("operator %q missing from %+v", name, stats.Ops)
		}
	}
	if _, ok := byOp["topk"]; ok {
		t.Fatal("per-protein plan reported the group-mode topk operator")
	}
	n := int64(v.n)
	if got := byOp["scan"]; got.RowsIn != n || got.RowsOut != n {
		t.Fatalf("scan rows = %+v, want in=out=%d", got, n)
	}
	if got := byOp["filter"]; got.RowsIn != n || got.RowsOut != n {
		t.Fatalf("unfiltered plan: filter rows = %+v, want in=out=%d", got, n)
	}
	if got := byOp["emit"]; got.RowsIn != n || got.RowsOut != int64(res.RowCount()) {
		t.Fatalf("emit rows = %+v, want in=%d out=%d", got, n, res.RowCount())
	}

	group := &Plan{GroupBy: "category", TopK: 2, Explain: true}
	gres, gstats, fe := ExecuteStats(v, group, 4, false)
	if fe != nil {
		t.Fatalf("execute group: %v", fe)
	}
	gByOp := map[string]OpStat{}
	for _, o := range gstats.Ops {
		gByOp[o.Op] = o
	}
	if _, ok := gByOp["topk"]; !ok {
		t.Fatalf("group plan lacks topk operator: %+v", gstats.Ops)
	}
	if got := gByOp["emit"]; got.RowsOut != int64(gres.RowCount()) {
		t.Fatalf("group emit rows_out = %d, want %d", got.RowsOut, gres.RowCount())
	}
}

// TestExplainTopKRowsInCountsEntriesRead pins what the group-mode topk
// operator's rows_in counts: the category ranking entries it read before
// keeping k rows, not every protein of every category.
func TestExplainTopKRowsInCountsEntriesRead(t *testing.T) {
	v := mipsView()
	for _, plan := range []*Plan{
		{GroupBy: "category", TopK: 3, Explain: true},
		{GroupBy: "category", TopK: 3, Explain: true, Filter: []Predicate{{Field: "degree", Op: "ge", Value: f(3)}}},
	} {
		_, stats, fe := ExecuteStats(v, plan, 2, false)
		if fe != nil {
			t.Fatalf("execute: %v", fe)
		}
		var want, wantOut int64
		for _, ranked := range v.byCategory {
			kept := 0
			for _, p := range ranked {
				if kept == plan.TopK {
					break
				}
				want++
				if len(plan.Filter) == 0 || v.Degree(int(p)) >= 3 {
					kept++
				}
			}
			wantOut += int64(kept)
		}
		for _, o := range stats.Ops {
			if o.Op == "topk" && (o.RowsIn != want || o.RowsOut != wantOut) {
				t.Errorf("filter %v: topk rows in=%d out=%d, want in=%d out=%d", plan.Filter, o.RowsIn, o.RowsOut, want, wantOut)
			}
		}
	}
}

func TestExplainRowCountsDeterministicAcrossParallelism(t *testing.T) {
	v := mipsView()
	plan := &Plan{Filter: []Predicate{{Field: "degree", Op: "ge", Value: f(3)}}, TopK: 2, Explain: true}
	_, s1, fe := ExecuteStats(v, plan, 1, false)
	if fe != nil {
		t.Fatalf("execute p1: %v", fe)
	}
	_, s4, fe := ExecuteStats(v, plan, 4, false)
	if fe != nil {
		t.Fatalf("execute p4: %v", fe)
	}
	if len(s1.Ops) != len(s4.Ops) {
		t.Fatalf("operator sets differ: %d vs %d", len(s1.Ops), len(s4.Ops))
	}
	for i := range s1.Ops {
		a, b := s1.Ops[i], s4.Ops[i]
		if a.Op != b.Op || a.RowsIn != b.RowsIn || a.RowsOut != b.RowsOut {
			t.Fatalf("row counts depend on parallelism: %+v vs %+v", a, b)
		}
	}
}

func TestCollectWithoutExplainLeavesBodyClean(t *testing.T) {
	v := mipsView()
	plan := &Plan{TopK: 2}
	res, stats, fe := ExecuteStats(v, plan, 2, true)
	if fe != nil {
		t.Fatalf("execute: %v", fe)
	}
	if stats == nil {
		t.Fatal("collect=true returned no stats")
	}
	if res.explain != nil {
		t.Fatal("collect-only execution attached explain to the body")
	}
	if bytes.Contains(res.Bytes(), []byte("explain")) {
		t.Fatal("collect-only body contains an explain field")
	}
	plainRes, fe := Execute(v, plan, 2)
	if fe != nil {
		t.Fatalf("plain execute: %v", fe)
	}
	if !bytes.Equal(res.Bytes(), plainRes.Bytes()) {
		t.Fatal("stats collection perturbed response bytes")
	}
}
