package query

import (
	"io"
	"strconv"
	"sync"
	"time"

	"lamofinder/internal/jsonx"
	"lamofinder/internal/par"
)

// BatchSize is the engine's fixed column-batch width. Every operator
// consumes and produces batches of exactly this many protein slots (the
// tail batch is short); chunk boundaries depend only on the protein count,
// never on the worker count, and 1024 is a multiple of 64 so each batch
// owns whole words of any shared bitset — two facts that together make
// results byte-identical at any Parallelism setting.
const BatchSize = 1024

// program is a compiled, bound plan: predicates split by the column they
// touch (so each operator runs one tight loop over one array), protein
// names resolved to a bitset, projection resolved to column ids.
type program struct {
	kind    string
	topk    int
	degree  []numPred // over the degree column
	score   []numPred // over score values (row-level)
	annot   []bool    // annotated-bit wants, ANDed (two contradictory clauses select nothing)
	protein []uint64  // membership bitset, nil when unfiltered
	group   bool      // group-by-category mode
	proj    []uint8
	cols    []string // projection names, for the response header
	rowMax  int      // the most bytes one encoded row can take
}

// numPred is one compiled numeric comparison. Degree thresholds are kept
// in float space (the kernel compares float64(degree[p]) op val), which
// sidesteps integer-rounding edge cases for fractional thresholds: a plan
// asking degree ge 2.5 selects exactly the proteins a reader would expect.
type numPred struct {
	op  uint8
	val float64
}

// compile validates p and binds it against v.
func compile(v *View, p *Plan) (*program, *FieldError) {
	if fe := p.Validate(); fe != nil {
		return nil, fe
	}
	pr := &program{kind: p.Kind(), topk: p.TopK, group: p.GroupBy == "category"}
	for i, f := range p.Filter {
		op, _ := parseOp(f.Op)
		switch f.Field {
		case "degree":
			pr.degree = append(pr.degree, numPred{op: op, val: *f.Value})
		case "score":
			pr.score = append(pr.score, numPred{op: op, val: *f.Value})
		case "annotated":
			want := *f.Bool
			if op == opNE {
				want = !want
			}
			pr.annot = append(pr.annot, want)
		case "protein":
			bits := make([]uint64, len(v.annotated))
			for j, name := range f.Names {
				id, ok := v.byName[name]
				if !ok {
					return nil, Errorf(
						"filter["+strconv.Itoa(i)+"].names["+strconv.Itoa(j)+"]",
						"unknown protein %q", name)
				}
				bits[id>>6] |= 1 << (id & 63)
			}
			if pr.protein == nil {
				pr.protein = bits
			} else {
				for w := range pr.protein {
					pr.protein[w] &= bits[w]
				}
			}
		}
	}
	proj := p.Project
	if len(proj) == 0 {
		if pr.group {
			proj = []string{"function", "protein", "score"}
		} else {
			proj = []string{"protein", "function", "score"}
		}
	}
	pr.cols = proj
	pr.proj = make([]uint8, len(proj))
	for i, c := range proj {
		pr.proj[i], _ = projectColumn(c)
	}
	pr.rowMax = v.rowBound(pr.proj)
	return pr, nil
}

// pair is one (protein, score) cell of a category's ranking.
type pair struct {
	p int32
	s float64
}

// pairBefore is the per-category ranking order: descending score, ties
// toward the smaller protein id — the same tie rule predict uses for
// functions, applied to the other axis.
func pairBefore(a, b pair) bool {
	if a.s > b.s {
		return true
	}
	if a.s < b.s {
		return false
	}
	return a.p < b.p
}

// scratch is the per-batch working set, pooled so steady-state execution
// allocates only result buffers.
type scratch struct {
	sel []int32
	top []int32
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{sel: make([]int32, 0, BatchSize)}
}}

// Result is one executed plan, held as per-chunk encoded row buffers until
// streamed. Keeping chunks separate (instead of concatenating eagerly)
// lets WriteTo hand each chunk to the socket as-is; order is fixed by
// chunk index, so the bytes are schedule-independent.
type Result struct {
	// Artifact is the digest of the model snapshot the plan ran against.
	Artifact string
	// Kind is the plan's metrics kind (scan, topk, group_topk).
	Kind string
	// Columns names the projected row fields, in row order.
	Columns []string

	rowCount int
	chunks   [][]byte
	// explain, when the plan asked for it, is appended after the rows
	// array; nil otherwise, so default responses stay byte-identical.
	explain *Stats
}

// RowCount returns the number of emitted rows.
func (r *Result) RowCount() int { return r.rowCount }

// WriteTo streams the response body: one JSON object with the artifact
// digest, the projected column names, the row count, and a rows array of
// fixed-order value arrays, closed with a newline. Each buffered chunk
// carries a leading ',' before every row; the writer strips the first
// comma of the first non-empty chunk, so assembly is pure concatenation.
func (r *Result) WriteTo(w io.Writer) (int64, error) {
	head := make([]byte, 0, 128)
	head = append(head, `{"artifact":`...)
	head = jsonx.AppendString(head, r.Artifact)
	head = append(head, `,"columns":[`...)
	for i, c := range r.Columns {
		if i > 0 {
			head = append(head, ',')
		}
		head = jsonx.AppendString(head, c)
	}
	head = append(head, `],"row_count":`...)
	head = strconv.AppendInt(head, int64(r.rowCount), 10)
	head = append(head, `,"rows":[`...)

	var n int64
	if err := writeAll(w, head, &n); err != nil {
		return n, err
	}
	first := true
	for _, c := range r.chunks {
		if len(c) == 0 {
			continue
		}
		if first {
			c = c[1:] // drop the leading ',' of the first emitted row
			first = false
		}
		if err := writeAll(w, c, &n); err != nil {
			return n, err
		}
	}
	tail := []byte{']'}
	if r.explain != nil {
		tail = r.explain.appendJSON(append(tail, `,"explain":`...))
	}
	tail = append(tail, '}', '\n')
	err := writeAll(w, tail, &n)
	return n, err
}

func writeAll(w io.Writer, b []byte, n *int64) error {
	m, err := w.Write(b)
	*n += int64(m)
	return err
}

// Execute runs plan against v on up to parallelism workers. The pipeline
// per batch is: scan (materialize the batch's selection vector) → filter
// (each predicate compacts the selection in place) → score-gather + topk
// (rows from the per-protein rankings, or in group mode the first k live
// entries of each category's ranking) → project (copy the chosen
// columns' pre-encoded text). Batches write
// only their own index-addressed output slot, so the assembled bytes are
// identical at any parallelism. ExecuteStats is the same pipeline with
// opt-in per-operator statistics.
func Execute(v *View, plan *Plan, parallelism int) (*Result, *FieldError) {
	res, _, fe := ExecuteStats(v, plan, parallelism, false)
	return res, fe
}

// filterBatch runs the compiled filter chain over one batch's selection
// vector, compacting it in place.
func filterBatch(v *View, prog *program, sel []int32) []int32 {
	for _, f := range prog.degree {
		sel = filterDegree(sel, v.degree, f.op, f.val)
	}
	for _, want := range prog.annot {
		sel = filterBits(sel, v.annotated, want)
	}
	if prog.protein != nil {
		sel = filterBits(sel, prog.protein, true)
	}
	return sel
}

// execPerProtein runs the per-protein modes (scan, topk): every batch
// filters its protein range, then emits each survivor's ranking rows into
// a buffer sized for them up front. st, when non-nil, aggregates
// per-operator stage timings; the fast path pays nil checks only.
func execPerProtein(v *View, prog *program, workers int, res *Result, st *statCol) {
	nc := par.NumChunks(v.n, BatchSize)
	res.chunks = make([][]byte, nc)
	counts := make([]int, nc)
	par.Chunks(v.n, BatchSize, workers, func(c, lo, hi int) {
		sc := scratchPool.Get().(*scratch)
		var t0 time.Time
		if st != nil {
			t0 = time.Now()
		}
		scanned := selectRange(sc.sel[:0], int32(lo), int32(hi))
		if st != nil {
			t1 := time.Now()
			st.add(opStageScan, int64(hi-lo), int64(len(scanned)), t1.Sub(t0))
			t0 = t1
		}
		sel := filterBatch(v, prog, scanned)
		if st != nil {
			t1 := time.Now()
			st.add(opStageFilter, int64(hi-lo), int64(len(sel)), t1.Sub(t0))
			t0 = t1
		}
		buf := make([]byte, 0, rankingRowBound(v, prog.topk, sel)*prog.rowMax)
		rows := 0
		for _, p := range sel {
			buf, rows = appendRankingRows(buf, v, prog, p, rows)
		}
		if st != nil {
			st.add(opStageEmit, int64(len(sel)), int64(rows), time.Since(t0))
		}
		sc.sel = sel[:0]
		scratchPool.Put(sc)
		res.chunks[c], counts[c] = buf, rows
	})
	for _, c := range counts {
		res.rowCount += c
	}
}

// execGroup runs group_topk: one shared selection bitset built batch-wise
// (each batch owns whole bitset words), then, on the calling goroutine,
// each category's first k live entries of its precomputed ranking, all
// emitted into one buffer sized up front. st, when non-nil, aggregates
// per-operator stage timings; the fast path pays nil checks only.
func execGroup(v *View, prog *program, workers int, res *Result, st *statCol) {
	live := make([]uint64, len(v.annotated))
	par.Chunks(v.n, BatchSize, workers, func(c, lo, hi int) {
		sc := scratchPool.Get().(*scratch)
		var t0 time.Time
		if st != nil {
			t0 = time.Now()
		}
		scanned := selectRange(sc.sel[:0], int32(lo), int32(hi))
		if st != nil {
			t1 := time.Now()
			st.add(opStageScan, int64(hi-lo), int64(len(scanned)), t1.Sub(t0))
			t0 = t1
		}
		sel := filterBatch(v, prog, scanned)
		markBits(live, sel)
		if st != nil {
			st.add(opStageFilter, int64(hi-lo), int64(len(sel)), time.Since(t0))
		}
		sc.sel = sel[:0]
		scratchPool.Put(sc)
	})

	k := prog.topk
	if k <= 0 || k > v.n {
		k = v.n
	}
	bound := 0
	for _, ranked := range v.byCategory {
		bound += min(k, len(ranked))
	}
	buf := make([]byte, 0, bound*prog.rowMax)
	sc := scratchPool.Get().(*scratch)
	for f, ranked := range v.byCategory {
		var t0 time.Time
		if st != nil {
			t0 = time.Now()
		}
		top, read := topkCategory(sc.top[:0], ranked, v.Column(f), live, prog.score, k)
		if st != nil {
			t1 := time.Now()
			st.add(opStageTopK, int64(read), int64(len(top)), t1.Sub(t0))
			t0 = t1
		}
		for _, p := range top {
			buf = appendRow(buf, v, prog.proj, p, int32(f))
		}
		if st != nil {
			st.add(opStageEmit, int64(len(top)), int64(len(top)), time.Since(t0))
		}
		sc.top = top[:0]
		res.rowCount += len(top)
	}
	scratchPool.Put(sc)
	res.chunks = [][]byte{buf}
}

// rankingRowBound counts the rows the selected proteins' rankings can
// emit: each ranking's length, cut to topk when it is positive. Score
// predicates can only emit fewer.
//
// alloc-budget: 0
func rankingRowBound(v *View, topk int, sel []int32) int {
	rows := 0
	for _, p := range sel {
		r := len(v.Ranking(int(p)))
		if topk > 0 && r > topk {
			r = topk
		}
		rows += r
	}
	return rows
}

// appendRankingRows emits protein p's filtered, truncated ranking rows and
// returns the updated running row count. Without score predicates the
// emitted rows are exactly Ranking(p)[:k] — what /v1/predict serves —
// which is the parity the determinism tests pin.
//
// alloc-budget: 0
func appendRankingRows(buf []byte, v *View, prog *program, p int32, rows int) ([]byte, int) {
	emitted := 0
	for _, r := range v.Ranking(int(p)) {
		if !passScore(r.Score, prog.score) {
			continue
		}
		buf = appendRow(buf, v, prog.proj, p, int32(r.Function))
		emitted++
		if prog.topk > 0 && emitted >= prog.topk {
			break
		}
	}
	return buf, rows + emitted
}

// selectRange materializes the batch's identity selection vector.
//
// alloc-budget: 0
func selectRange(sel []int32, lo, hi int32) []int32 {
	for p := lo; p < hi; p++ {
		sel = append(sel, p)
	}
	return sel
}

// filterDegree compacts sel in place, keeping proteins whose degree
// satisfies op against val. One branch-predictable comparison loop per
// operator, over the contiguous degree column.
//
// alloc-budget: 0
func filterDegree(sel []int32, degree []int32, op uint8, val float64) []int32 {
	w := 0
	switch op {
	case opEQ:
		for _, p := range sel {
			if d := float64(degree[p]); d >= val && d <= val {
				sel[w] = p
				w++
			}
		}
	case opNE:
		for _, p := range sel {
			if d := float64(degree[p]); d < val || d > val {
				sel[w] = p
				w++
			}
		}
	case opLT:
		for _, p := range sel {
			if float64(degree[p]) < val {
				sel[w] = p
				w++
			}
		}
	case opLE:
		for _, p := range sel {
			if float64(degree[p]) <= val {
				sel[w] = p
				w++
			}
		}
	case opGT:
		for _, p := range sel {
			if float64(degree[p]) > val {
				sel[w] = p
				w++
			}
		}
	case opGE:
		for _, p := range sel {
			if float64(degree[p]) >= val {
				sel[w] = p
				w++
			}
		}
	}
	return sel[:w]
}

// filterBits compacts sel in place, keeping proteins whose bit equals want.
//
// alloc-budget: 0
func filterBits(sel []int32, bits []uint64, want bool) []int32 {
	w := 0
	for _, p := range sel {
		if (bits[p>>6]&(1<<(uint(p)&63)) != 0) == want {
			sel[w] = p
			w++
		}
	}
	return sel[:w]
}

// markBits sets the bit of every selected protein. Callers partition
// proteins into BatchSize batches, and BatchSize is a multiple of 64, so
// concurrent batches touch disjoint words.
//
// alloc-budget: 0
func markBits(bits []uint64, sel []int32) {
	for _, p := range sel {
		bits[p>>6] |= 1 << (uint(p) & 63)
	}
}

// passScore reports whether s satisfies every score predicate.
//
// alloc-budget: 0
func passScore(s float64, preds []numPred) bool {
	for _, f := range preds {
		switch f.op {
		case opLT:
			if !(s < f.val) {
				return false
			}
		case opLE:
			if !(s <= f.val) {
				return false
			}
		case opGT:
			if !(s > f.val) {
				return false
			}
		case opGE:
			if !(s >= f.val) {
				return false
			}
		}
	}
	return true
}

// topkCategory keeps the first k proteins of one category's ranking
// (positive scores only, best first by pairBefore) that are live and pass
// every score predicate: the k best selected proteins by (score desc,
// protein asc), mirroring predict's rank order on the protein axis. It
// also returns how many ranking entries it read, explain's topk rows_in.
//
// alloc-budget: 0
func topkCategory(dst, ranked []int32, col []float64, live []uint64, preds []numPred, k int) ([]int32, int) {
	read := 0
	for _, p := range ranked {
		if len(dst) >= k {
			break
		}
		read++
		if live[p>>6]&(1<<(uint(p)&63)) == 0 || !passScore(col[p], preds) {
			continue
		}
		dst = append(dst, p)
	}
	return dst, read
}

// appendRow append-encodes one projected row as a JSON array, prefixed
// with ',' (the writer strips the first row's). Names and scores are
// copied from the view's pre-encoded text. Every /v1/query and lamod
// query row passes through it, so taintdet treats it as a sink.
//
// lamovet:sink
// alloc-budget: 0
func appendRow(buf []byte, v *View, proj []uint8, p, f int32) []byte {
	buf = append(buf, ',', '[')
	for i, c := range proj {
		if i > 0 {
			buf = append(buf, ',')
		}
		switch c {
		case colProtein:
			buf = append(buf, v.nameText.at(int(p))...)
		case colDegree:
			buf = strconv.AppendInt(buf, int64(v.degree[p]), 10)
		case colFunction:
			buf = strconv.AppendInt(buf, int64(f), 10)
		case colName:
			buf = append(buf, v.FunctionJSON(int(f))...)
		case colScore:
			buf = append(buf, v.ScoreJSON(int(p), int(f))...)
		}
	}
	return append(buf, ']')
}
