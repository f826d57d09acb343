package query

import (
	"strconv"
	"sync/atomic"
	"time"

	"lamofinder/internal/par"
)

// Per-operator execution statistics: the EXPLAIN ANALYZE counterpart of
// the vectorized pipeline. Collection is strictly opt-in — Execute passes
// a nil collector and pays two nil checks per batch, nothing else — so
// the byte-deterministic fast path stays byte-identical and
// allocation-identical whether or not anyone is watching.

// Operator slots, in pipeline order. Per-protein plans use scan, filter,
// emit; group plans add the per-category topk stage.
const (
	opStageScan = iota
	opStageFilter
	opStageTopK
	opStageEmit
	numOpStages
)

var opStageNames = [numOpStages]string{"scan", "filter", "topk", "emit"}

// OpStat is one operator's aggregated counters for one plan execution.
// Row counts are deterministic (they depend only on the plan and the
// model); BusyUS sums the wall time every batch spent inside the operator,
// so under parallel execution it can exceed WallUS — it is CPU-occupancy,
// not elapsed time.
type OpStat struct {
	Op      string `json:"op"`
	RowsIn  int64  `json:"rows_in"`
	RowsOut int64  `json:"rows_out"`
	BusyUS  int64  `json:"busy_us"`
}

// Stats is the execution summary of one plan: total wall time plus the
// per-operator breakdown, in pipeline order.
type Stats struct {
	WallUS int64    `json:"wall_us"`
	Ops    []OpStat `json:"operators"`
}

// appendJSON append-encodes the stats object with fixed field order, so
// the explain tail is rendered by the same hand-rolled discipline as the
// row stream.
func (st *Stats) appendJSON(buf []byte) []byte {
	buf = append(buf, `{"wall_us":`...)
	buf = strconv.AppendInt(buf, st.WallUS, 10)
	buf = append(buf, `,"operators":[`...)
	for i := range st.Ops {
		if i > 0 {
			buf = append(buf, ',')
		}
		o := &st.Ops[i]
		buf = append(buf, `{"op":"`...)
		buf = append(buf, o.Op...) // operator names are static identifiers
		buf = append(buf, `","rows_in":`...)
		buf = strconv.AppendInt(buf, o.RowsIn, 10)
		buf = append(buf, `,"rows_out":`...)
		buf = strconv.AppendInt(buf, o.RowsOut, 10)
		buf = append(buf, `,"busy_us":`...)
		buf = strconv.AppendInt(buf, o.BusyUS, 10)
		buf = append(buf, '}')
	}
	return append(buf, ']', '}')
}

// statCol accumulates operator counters across concurrently executing
// batches. All fields are atomic so batch workers add without locks; the
// final Stats assembly is a point-in-time read after the pipeline joins.
type statCol struct {
	rowsIn  [numOpStages]atomic.Int64
	rowsOut [numOpStages]atomic.Int64
	busy    [numOpStages]atomic.Int64 // nanoseconds
}

// add records one batch's pass through an operator. Nil-safe so the
// executor threads a nil collector on the fast path.
func (c *statCol) add(op int, in, out int64, d time.Duration) {
	if c == nil {
		return
	}
	c.rowsIn[op].Add(in)
	c.rowsOut[op].Add(out)
	c.busy[op].Add(d.Nanoseconds())
}

// stats assembles the final summary. group selects which operator slots
// the plan shape actually ran.
func (c *statCol) stats(group bool, wall time.Duration) *Stats {
	st := &Stats{WallUS: wall.Microseconds()}
	for op := 0; op < numOpStages; op++ {
		if op == opStageTopK && !group {
			continue
		}
		st.Ops = append(st.Ops, OpStat{
			Op:      opStageNames[op],
			RowsIn:  c.rowsIn[op].Load(),
			RowsOut: c.rowsOut[op].Load(),
			BusyUS:  time.Duration(c.busy[op].Load()).Microseconds(),
		})
	}
	return st
}

// ExecuteStats is Execute with opt-in operator statistics: when collect is
// true (or the plan itself asks for "explain": true) every batch times its
// scan/filter/topk/emit stages into an atomic collector, and the returned
// Stats carries the per-operator rows-in/rows-out and busy time. The row
// bytes the Result streams are byte-identical with and without collection;
// a plan with Explain set additionally appends the stats as an "explain"
// field after the rows array.
func ExecuteStats(v *View, plan *Plan, parallelism int, collect bool) (*Result, *Stats, *FieldError) {
	prog, fe := compile(v, plan)
	if fe != nil {
		return nil, nil, fe
	}
	var st *statCol
	var start time.Time
	if collect || plan.Explain {
		st = &statCol{}
		start = time.Now()
	}
	res := &Result{Artifact: v.digest, Kind: prog.kind, Columns: prog.cols}
	workers := par.Workers(parallelism)
	if prog.group {
		execGroup(v, prog, workers, res, st)
	} else {
		execPerProtein(v, prog, workers, res, st)
	}
	if st == nil {
		return res, nil, nil
	}
	stats := st.stats(prog.group, time.Since(start))
	if plan.Explain {
		res.explain = stats
	}
	return res, stats, nil
}
