package query

import (
	"io"
	"testing"
)

// benchProgram compiles a plan against the shared MIPS view, failing the
// benchmark on validation errors.
func benchProgram(b *testing.B, plan *Plan) (*View, *program) {
	b.Helper()
	v := mipsView()
	prog, fe := compile(v, plan)
	if fe != nil {
		b.Fatal(fe)
	}
	return v, prog
}

// reportPerRow attaches ns/row to the benchmark output (rows = column
// slots an operator touched per iteration).
func reportPerRow(b *testing.B, rows int) {
	b.Helper()
	if rows > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
	}
}

func BenchmarkFilterDegree(b *testing.B) {
	v := mipsView()
	sel := make([]int32, 0, BatchSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := selectRange(sel[:0], 0, BatchSize)
		s = filterDegree(s, v.degree, opGE, 2)
		if len(s) == 0 {
			b.Fatal("filter dropped everything")
		}
	}
	reportPerRow(b, BatchSize)
}

func BenchmarkFilterBits(b *testing.B) {
	v := mipsView()
	sel := make([]int32, 0, BatchSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := selectRange(sel[:0], 0, BatchSize)
		s = filterBits(s, v.annotated, true)
		if len(s) == 0 {
			b.Fatal("filter dropped everything")
		}
	}
	reportPerRow(b, BatchSize)
}

func BenchmarkTopKCategory(b *testing.B) {
	v := mipsView()
	live := make([]uint64, len(v.annotated))
	for i := range live {
		live[i] = ^uint64(0)
	}
	top := make([]int32, 0, 16)
	col := v.Column(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		top = topkCategory(top[:0], v.byCategory[0], col, live, nil, 5)
	}
	reportPerRow(b, len(top))
}

func BenchmarkAppendRows(b *testing.B) {
	v, prog := benchProgram(b, &Plan{TopK: 5})
	buf := make([]byte, 0, 1<<16)
	b.ReportAllocs()
	rows := 0
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		rows = 0
		for p := int32(0); p < 256; p++ {
			buf, rows = appendRankingRows(buf, v, prog, p, rows)
		}
	}
	reportPerRow(b, rows)
}

func BenchmarkExecuteScan(b *testing.B) {
	v := mipsView()
	plan := &Plan{}
	b.ReportAllocs()
	var rows int
	for i := 0; i < b.N; i++ {
		res, fe := Execute(v, plan, 0)
		if fe != nil {
			b.Fatal(fe)
		}
		if _, err := res.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
		rows = res.RowCount()
	}
	reportPerRow(b, rows)
}

func BenchmarkExecuteGroupTopK(b *testing.B) {
	v := mipsView()
	plan := &Plan{GroupBy: "category", TopK: 10}
	b.ReportAllocs()
	var rows int
	for i := 0; i < b.N; i++ {
		res, fe := Execute(v, plan, 0)
		if fe != nil {
			b.Fatal(fe)
		}
		if _, err := res.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
		rows = res.RowCount()
	}
	reportPerRow(b, rows)
}

// TestOperatorKernelAllocs is the runtime counterpart of the static
// `// alloc-budget: 0` annotations: the filter, top-k, and row-encoding
// kernels must not allocate once their destination buffers have capacity.
func TestOperatorKernelAllocs(t *testing.T) {
	v := mipsView()
	prog, fe := compile(v, &Plan{TopK: 5})
	if fe != nil {
		t.Fatal(fe)
	}
	sel := make([]int32, 0, BatchSize)
	top := make([]int32, 0, 16)
	buf := make([]byte, 0, 1<<20)
	live := make([]uint64, len(v.annotated))
	col := v.Column(0)
	if n := testing.AllocsPerRun(20, func() {
		s := selectRange(sel[:0], 0, BatchSize)
		s = filterDegree(s, v.degree, opGE, 2)
		s = filterBits(s, v.annotated, true)
		markBits(live, s)
		top = topkCategory(top[:0], v.byCategory[0], col, live, nil, 5)
		buf2 := buf[:0]
		for _, p := range top {
			buf2 = appendRow(buf2, v, prog.proj, p, 0)
		}
		rows := rankingRowBound(v, prog.topk, s)
		for _, p := range s {
			buf2, rows = appendRankingRows(buf2, v, prog, p, rows)
		}
		_ = rows
	}); n != 0 {
		t.Fatalf("operator kernels allocate %.1f times per batch, budget is 0", n)
	}
}
