package query

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"lamofinder/internal/artifact"
	"lamofinder/internal/dataset"
	"lamofinder/internal/label"
	"lamofinder/internal/predict"
)

// plantedMotifs converts the benchmark's planted templates into
// labeled-motif fixtures: the ground-truth occurrence sets with full
// frequency and a fixed high uniqueness, vertices left unlabeled. Eq.-5
// scoring consumes only topology, occurrences, frequency, and uniqueness
// — vertex labels feed the labeling pipeline, not the predictor — so
// these fixtures score exactly like mined motifs while skipping ESU and
// LaMoFinder entirely, which makes a full-size serving artifact cheap
// enough for unit tests and benchmarks.
func plantedMotifs(m *dataset.MIPS) []*label.LabeledMotif {
	motifs := make([]*label.LabeledMotif, 0, len(m.Planted))
	for _, pt := range m.Planted {
		if len(pt.Instances) == 0 {
			continue
		}
		motifs = append(motifs, &label.LabeledMotif{
			Pattern:     pt.Pattern,
			Labels:      make([][]int32, pt.Pattern.N()),
			Occurrences: pt.Instances,
			Frequency:   len(pt.Instances),
			Uniqueness:  0.9,
		})
	}
	return motifs
}

// mipsArtifact builds the full-size (1877-protein) indexed serving
// artifact from the synthetic MIPS benchmark, using the planted templates
// as ready-made labeled motifs. At 1877 proteins the engine spans two
// BatchSize batches, so chunked execution and batch-boundary determinism
// are actually exercised. Built once and shared read-only.
var mipsArtifact = sync.OnceValue(func() *artifact.Artifact {
	m := dataset.NewMIPS(dataset.DefaultMIPSConfig())
	art, err := artifact.Build("mips-synthetic", "query test fixture",
		m.Task, m.CategoryNames(), m.Corpus, m.Corpus.DirectCounts(), 30, plantedMotifs(m))
	if err != nil {
		panic(err)
	}
	art.BuildIndex(0)
	return art
})

var mipsView = sync.OnceValue(func() *View {
	v, err := NewView(mipsArtifact(), 0)
	if err != nil {
		panic(err)
	}
	return v
})

// response is the decoded /v1/query body shape.
type response struct {
	Artifact string            `json:"artifact"`
	Columns  []string          `json:"columns"`
	RowCount int               `json:"row_count"`
	Rows     []json.RawMessage `json:"rows"`
}

func run(t *testing.T, v *View, p *Plan, parallelism int) ([]byte, *response) {
	t.Helper()
	res, fe := Execute(v, p, parallelism)
	if fe != nil {
		t.Fatalf("execute: %v", fe)
	}
	body := res.Bytes()
	var dec response
	if err := json.Unmarshal(body, &dec); err != nil {
		t.Fatalf("response does not parse: %v\n%s", err, body)
	}
	if dec.RowCount != len(dec.Rows) {
		t.Fatalf("row_count %d but %d rows", dec.RowCount, len(dec.Rows))
	}
	if dec.RowCount != res.RowCount() {
		t.Fatalf("RowCount() %d but body says %d", res.RowCount(), dec.RowCount)
	}
	return body, &dec
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name  string
		plan  Plan
		field string
	}{
		{"bad scan", Plan{Scan: "motifs"}, "scan"},
		{"bad group", Plan{GroupBy: "degree"}, "group_by"},
		{"negative topk", Plan{TopK: -1}, "topk"},
		{"bad op", Plan{Filter: []Predicate{{Field: "degree", Op: "like"}}}, "filter[0].op"},
		{"bad field", Plan{Filter: []Predicate{{Field: "mass", Op: "ge"}}}, "filter[0].field"},
		{"degree missing value", Plan{Filter: []Predicate{{Field: "degree", Op: "ge"}}}, "filter[0].value"},
		{"degree in", Plan{Filter: []Predicate{{Field: "degree", Op: "in"}}}, "filter[0].op"},
		{"score eq", Plan{Filter: []Predicate{{Field: "score", Op: "eq", Value: f(0.5)}}}, "filter[0].op"},
		{"score missing value", Plan{Filter: []Predicate{{Field: "score", Op: "ge"}}}, "filter[0].value"},
		{"annotated lt", Plan{Filter: []Predicate{{Field: "annotated", Op: "lt", Bool: b(true)}}}, "filter[0].op"},
		{"annotated missing bool", Plan{Filter: []Predicate{{Field: "annotated", Op: "eq"}}}, "filter[0].bool"},
		{"protein ge", Plan{Filter: []Predicate{{Field: "protein", Op: "ge", Names: []string{"x"}}}}, "filter[0].op"},
		{"protein empty", Plan{Filter: []Predicate{{Field: "protein", Op: "in"}}}, "filter[0].names"},
		{"bad column", Plan{Project: []string{"protein", "mass"}}, "project[1]"},
	}
	for _, tc := range cases {
		fe := tc.plan.Validate()
		if fe == nil {
			t.Errorf("%s: validated clean, want error on %s", tc.name, tc.field)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: error on field %q (%s), want %q", tc.name, fe.Field, fe.Reason, tc.field)
		}
		if fe.Reason == "" || !strings.Contains(fe.Error(), fe.Field) {
			t.Errorf("%s: malformed error %q", tc.name, fe.Error())
		}
	}
	good := Plan{
		Scan: "proteins",
		Filter: []Predicate{
			{Field: "degree", Op: "ge", Value: f(2)},
			{Field: "annotated", Op: "eq", Bool: b(false)},
			{Field: "score", Op: "gt", Value: f(0.1)},
			{Field: "protein", Op: "in", Names: []string{"M0001"}},
		},
		TopK:    3,
		Project: []string{"protein", "degree", "function", "name", "score"},
	}
	if fe := good.Validate(); fe != nil {
		t.Fatalf("good plan rejected: %v", fe)
	}
}

func f(x float64) *float64 { return &x }
func b(x bool) *bool       { return &x }

func TestUnknownProteinIsFieldError(t *testing.T) {
	v := mipsView()
	_, fe := Execute(v, &Plan{Filter: []Predicate{
		{Field: "protein", Op: "in", Names: []string{"M0001", "NOSUCH"}},
	}}, 1)
	if fe == nil {
		t.Fatal("unknown protein accepted")
	}
	if fe.Field != "filter[0].names[1]" {
		t.Fatalf("error field %q, want filter[0].names[1]", fe.Field)
	}
}

// TestScanMatchesRankings pins the unfiltered scan to the per-protein
// rankings the artifact index already guarantees: every protein's rows, in
// protein order, each row [name, function, score].
func TestScanMatchesRankings(t *testing.T) {
	v := mipsView()
	_, dec := run(t, v, &Plan{}, 0)
	if dec.Artifact != v.Digest() {
		t.Fatalf("artifact %q, want %q", dec.Artifact, v.Digest())
	}
	want := 0
	for p := 0; p < v.NumProteins(); p++ {
		want += len(v.Ranking(p))
	}
	if dec.RowCount != want {
		t.Fatalf("scan emitted %d rows, rankings hold %d", dec.RowCount, want)
	}
	ri := 0
	for p := 0; p < v.NumProteins(); p++ {
		for _, r := range v.Ranking(p) {
			var row struct {
				name  string
				fn    int
				score float64
			}
			var raw []json.RawMessage
			if err := json.Unmarshal(dec.Rows[ri], &raw); err != nil || len(raw) != 3 {
				t.Fatalf("row %d: %v (%s)", ri, err, dec.Rows[ri])
			}
			mustUnmarshal(t, raw[0], &row.name)
			mustUnmarshal(t, raw[1], &row.fn)
			mustUnmarshal(t, raw[2], &row.score)
			if row.name != v.Name(p) || row.fn != r.Function || row.score != r.Score {
				t.Fatalf("row %d = [%s %d %v], want [%s %d %v]",
					ri, row.name, row.fn, row.score, v.Name(p), r.Function, r.Score)
			}
			ri++
		}
	}
}

func mustUnmarshal(t *testing.T, raw json.RawMessage, into any) {
	t.Helper()
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
}

// TestFilteredTopKMatchesBruteForce cross-checks a filtered per-protein
// top-k plan against a direct loop over the view's accessors.
func TestFilteredTopKMatchesBruteForce(t *testing.T) {
	v := mipsView()
	const minDeg, k = 3, 2
	plan := &Plan{
		Filter: []Predicate{
			{Field: "degree", Op: "ge", Value: f(minDeg)},
			{Field: "annotated", Op: "eq", Bool: b(false)},
		},
		TopK:    k,
		Project: []string{"protein", "degree", "score"},
	}
	_, dec := run(t, v, plan, 0)
	type row struct {
		name  string
		deg   int
		score float64
	}
	var want []row
	for p := 0; p < v.NumProteins(); p++ {
		if v.Degree(p) < minDeg || v.Annotated(p) {
			continue
		}
		rk := v.Ranking(p)
		if len(rk) > k {
			rk = rk[:k]
		}
		for _, r := range rk {
			want = append(want, row{v.Name(p), v.Degree(p), r.Score})
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture yields no unannotated proteins of degree >= 3; filter test is vacuous")
	}
	if dec.RowCount != len(want) {
		t.Fatalf("%d rows, brute force says %d", dec.RowCount, len(want))
	}
	for i, w := range want {
		var raw []json.RawMessage
		mustUnmarshal(t, dec.Rows[i], &raw)
		var g row
		mustUnmarshal(t, raw[0], &g.name)
		mustUnmarshal(t, raw[1], &g.deg)
		mustUnmarshal(t, raw[2], &g.score)
		if g != w {
			t.Fatalf("row %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestGroupTopKMatchesBruteForce cross-checks the per-category mode
// against a direct scan of each score column.
func TestGroupTopKMatchesBruteForce(t *testing.T) {
	v := mipsView()
	const k = 3
	plan := &Plan{
		GroupBy: "category",
		TopK:    k,
		Filter:  []Predicate{{Field: "annotated", Op: "eq", Bool: b(true)}},
		Project: []string{"function", "name", "protein", "score"},
	}
	_, dec := run(t, v, plan, 0)
	ri := 0
	total := 0
	for fn := 0; fn < v.NumFunctions(); fn++ {
		col := v.Column(fn)
		// Brute-force the k best selected proteins: repeated linear max
		// with the same (score desc, protein asc) order.
		taken := map[int]bool{}
		for slot := 0; slot < k; slot++ {
			best := -1
			for p, s := range col {
				if s <= 0 || taken[p] || !v.Annotated(p) {
					continue
				}
				if best < 0 || s > col[best] {
					best = p
				}
			}
			if best < 0 {
				break
			}
			taken[best] = true
			total++
			var raw []json.RawMessage
			mustUnmarshal(t, dec.Rows[ri], &raw)
			var gotFn int
			var catName, protein string
			var score float64
			mustUnmarshal(t, raw[0], &gotFn)
			mustUnmarshal(t, raw[1], &catName)
			mustUnmarshal(t, raw[2], &protein)
			mustUnmarshal(t, raw[3], &score)
			if gotFn != fn || protein != v.Name(best) || score != col[best] {
				t.Fatalf("category %d slot %d: [%d %s %s %v], want [%d _ %s %v]",
					fn, slot, gotFn, catName, protein, score, fn, v.Name(best), col[best])
			}
			ri++
		}
	}
	if total == 0 {
		t.Fatal("no category produced rows; group test is vacuous")
	}
	if dec.RowCount != total {
		t.Fatalf("%d rows, brute force says %d", dec.RowCount, total)
	}
}

// TestProteinPinnedTopKMatchesRanking is the /v1/predict parity invariant
// at engine level: topk(k, protein=p) emits exactly Ranking(p)[:k].
func TestProteinPinnedTopKMatchesRanking(t *testing.T) {
	v := mipsView()
	for _, p := range []int{0, 7, 511, 1023, 1024, 1876} {
		name := v.Name(p)
		_, dec := run(t, v, &Plan{
			Filter: []Predicate{{Field: "protein", Op: "in", Names: []string{name}}},
			TopK:   4,
		}, 0)
		rk := v.Ranking(p)
		if len(rk) > 4 {
			rk = rk[:4]
		}
		if dec.RowCount != len(rk) {
			t.Fatalf("protein %s: %d rows, ranking has %d", name, dec.RowCount, len(rk))
		}
		for i, r := range rk {
			var raw []json.RawMessage
			mustUnmarshal(t, dec.Rows[i], &raw)
			var gotName string
			var fn int
			var score float64
			mustUnmarshal(t, raw[0], &gotName)
			mustUnmarshal(t, raw[1], &fn)
			mustUnmarshal(t, raw[2], &score)
			if gotName != name || fn != r.Function || score != r.Score {
				t.Fatalf("protein %s row %d: [%s %d %v], want [%s %d %v]",
					name, i, gotName, fn, score, name, r.Function, r.Score)
			}
		}
	}
}

// determinismPlans are the shapes the byte-determinism gate runs.
func determinismPlans() []*Plan {
	return []*Plan{
		{},
		{TopK: 5},
		{Filter: []Predicate{{Field: "degree", Op: "ge", Value: f(2)}}, TopK: 3},
		{Filter: []Predicate{
			{Field: "annotated", Op: "eq", Bool: b(false)},
			{Field: "score", Op: "ge", Value: f(0.05)},
		}, TopK: 5, Project: []string{"protein", "degree", "function", "name", "score"}},
		{GroupBy: "category", TopK: 7},
		{GroupBy: "category", TopK: 2, Filter: []Predicate{{Field: "degree", Op: "ge", Value: f(3)}}},
	}
}

// TestDeterministicAcrossParallelismAndRuns is the satellite gate: every
// plan's bytes are identical across Parallelism 1 vs 4 and across runs.
func TestDeterministicAcrossParallelismAndRuns(t *testing.T) {
	v := mipsView()
	for pi, plan := range determinismPlans() {
		var ref []byte
		for _, parallelism := range []int{1, 4} {
			for i := 0; i < 2; i++ {
				body, _ := run(t, v, plan, parallelism)
				if ref == nil {
					ref = body
					continue
				}
				if !bytes.Equal(ref, body) {
					t.Fatalf("plan %d: bytes differ at parallelism %d run %d", pi, parallelism, i)
				}
			}
		}
		if len(ref) == 0 {
			t.Fatalf("plan %d produced no bytes", pi)
		}
	}
}

// TestIndexedAndFallbackViewsAgree pins the view to the offline scorer: a
// view bound to the artifact as a daemon loads it (encoded, then decoded
// into category-major columns) must carry, for every protein, exactly the
// scores and the full ranking label.NewScorer computes from the same task
// and motifs.
func TestIndexedAndFallbackViewsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("the reference scores the whole interactome")
	}
	art := mipsArtifact()
	b, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := artifact.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(loaded, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := label.NewScorer(art.Task(), art.Motifs)
	for p := 0; p < v.NumProteins(); p++ {
		row := ref.Scores(p)
		for f, s := range row {
			if got := v.Column(f)[p]; got != s {
				t.Fatalf("protein %d category %d: view %v, scorer %v", p, f, got, s)
			}
		}
		want, got := predict.TopK(row, 0), v.Ranking(p)
		if len(got) != len(want) {
			t.Fatalf("protein %d: view ranks %d categories, scorer %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("protein %d rank %d: view %+v, scorer %+v", p, i, got[i], want[i])
			}
		}
	}
}

// TestStreamedEqualsBuffered pins WriteTo's streamed form to Bytes and to
// a chunked writer that forces many short Writes.
func TestStreamedEqualsBuffered(t *testing.T) {
	v := mipsView()
	res, fe := Execute(v, &Plan{TopK: 3}, 0)
	if fe != nil {
		t.Fatal(fe)
	}
	var buf bytes.Buffer
	n, err := res.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	if !bytes.Equal(buf.Bytes(), res.Bytes()) {
		t.Fatal("WriteTo and Bytes disagree")
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte("]}\n")) {
		t.Fatal("response does not end in ]}\\n")
	}
}

// TestEmptyResult pins the empty-selection shape: row_count 0, rows [].
func TestEmptyResult(t *testing.T) {
	v := mipsView()
	_, dec := run(t, v, &Plan{
		Filter: []Predicate{{Field: "degree", Op: "ge", Value: f(1e9)}},
	}, 0)
	if dec.RowCount != 0 || len(dec.Rows) != 0 {
		t.Fatalf("impossible filter emitted %d rows", dec.RowCount)
	}
	// Contradictory annotated clauses likewise select nothing.
	_, dec = run(t, v, &Plan{Filter: []Predicate{
		{Field: "annotated", Op: "eq", Bool: b(true)},
		{Field: "annotated", Op: "eq", Bool: b(false)},
	}}, 0)
	if dec.RowCount != 0 {
		t.Fatalf("contradictory filters emitted %d rows", dec.RowCount)
	}
}

// TestViewAgainstArtifact pins the view to the artifact: score columns and
// rankings alias the ScoreIndex instead of copying it, and the attribute
// columns match the graph and task.
func TestViewAgainstArtifact(t *testing.T) {
	art := mipsArtifact()
	v := mipsView()
	n := art.Graph.N()
	if v.NumProteins() != n || v.NumFunctions() != art.NumFunctions {
		t.Fatalf("view %d×%d, artifact %d×%d", v.NumProteins(), v.NumFunctions(), n, art.NumFunctions)
	}
	for fn := 0; fn < art.NumFunctions; fn++ {
		if &v.Column(fn)[0] != &art.Index.Column(fn)[0] {
			t.Fatalf("column %d is a copy, not the index's column", fn)
		}
	}
	for p := 0; p < n; p++ {
		if rk := art.Index.Ranking(p); len(rk) > 0 && &v.Ranking(p)[0] != &rk[0] {
			t.Fatalf("ranking %d is a copy, not the index's ranking", p)
		}
		if v.Degree(p) != art.Graph.Degree(p) {
			t.Fatalf("degree[%d] = %d, graph says %d", p, v.Degree(p), art.Graph.Degree(p))
		}
		if v.Annotated(p) != (len(art.Functions[p]) > 0) {
			t.Fatalf("annotated[%d] = %v, task says %v", p, v.Annotated(p), len(art.Functions[p]) > 0)
		}
		if id, ok := v.Resolve(v.Name(p)); !ok || id != p {
			t.Fatalf("resolve(%q) = %d,%v", v.Name(p), id, ok)
		}
	}
}
