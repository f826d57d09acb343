package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// benchmarkFile is the part of the root BENCHMARK.json the bench reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// Verdicts of compare.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
	verdictSame       = "same" // a layer metric with no claimable change
)

// comparison is one (workload, metric) between parent runs a and change
// runs b.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	won            float64 // share of (a[i], b[i]) pairs the change won; ties count for neither
	verdict        string
}

// compareRuns applies the rule for claiming a change. The change is better
// when it wins at least nine tenths of the pairs and the medians differ by
// more than the parent's interquartile distance; the same rule run in
// reverse (losses for wins) makes it plainly worse. Otherwise, with a
// bound (an end-to-end metric):
//
//   - when the parent's own spread exceeds the bound, the bound cannot
//     separate a change from noise: plainly worse, or every change run
//     worse than every parent run, reads worse; every change run better
//     than every parent run reads within-bound; anything else unresolved;
//   - else worse when the change's median is worse than the parent's by
//     more than the bound as a share of the parent's median, and
//     within-bound otherwise.
//
// Without a bound (bound < 0, a layer metric): plainly worse reads worse,
// anything else same.
func compareRuns(a, b []float64, higherBetter bool, bound float64) comparison {
	c := comparison{medA: median(a), medB: median(b)}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	sign := -1.0
	if higherBetter {
		sign = 1
	}
	pairs := min(len(a), len(b))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	if pairs > 0 {
		c.won = float64(wins) / float64(pairs)
	}
	gain := sign * (c.medB - c.medA)
	iqr := c.q3A - c.q1A
	plainlyWorse := pairs > 0 && float64(losses)/float64(pairs) >= 0.9 && -gain > iqr
	wide := c.medA != 0 && iqr/math.Abs(c.medA) > bound
	switch {
	case pairs > 0 && c.won >= 0.9 && gain > iqr:
		c.verdict = verdictBetter
	case bound < 0:
		c.verdict = verdictSame
		if plainlyWorse {
			c.verdict = verdictWorse
		}
	case wide && (plainlyWorse || allBetter(b, a, sign)):
		c.verdict = verdictWorse
	case wide && !allBetter(a, b, sign):
		c.verdict = verdictUnresolved
	case -gain > bound*math.Abs(c.medA):
		c.verdict = verdictWorse
	default:
		c.verdict = verdictWithin
	}
	return c
}

// allBetter reports whether every b run beats every a run; allBetter(b, a,
// sign) reports whether every b run is worse than every a run.
func allBetter(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstB, bestA := sign*b[0], sign*a[0]
	for _, x := range b {
		worstB = math.Min(worstB, sign*x)
	}
	for _, x := range a {
		bestA = math.Max(bestA, sign*x)
	}
	return worstB > bestA
}

// storedRecord is a results-file line as compare reads it.
type storedRecord struct {
	Workload string                 `json:"workload"`
	Mode     string                 `json:"mode"`
	Failed   int64                  `json:"failed"`
	Metrics  map[string]metricValue `json:"metrics"`
}

func readRecords(path string) ([]storedRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read only: nothing to flush
	var recs []storedRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r storedRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// series returns, in file order, the values of metric over the records of
// one workload and mode.
func series(recs []storedRecord, workload, mode, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload != workload || r.Mode != mode {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func failures(recs []storedRecord) int64 {
	var n int64
	for _, r := range recs {
		n += r.Failed
	}
	return n
}

// runCompare compares the runs in two results files (parent first) per
// workload and metric. It exits 1 if any end-to-end metric is worse or
// unresolved: a comparison that cannot rule out a regression does not
// pass.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	bench := fs.String("benchmark", "BENCHMARK.json", "benchmark definition with each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	bf, err := readBenchmark(*bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 1
	}
	a, err := readRecords(fs.Arg(0))
	if err == nil {
		var b []storedRecord
		if b, err = readRecords(fs.Arg(1)); err == nil {
			return printComparison(bf, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
	return 1
}

func printComparison(bf *benchmarkFile, a, b []storedRecord) int {
	worse, unresolved := 0, 0
	fmt.Printf("%-14s %-30s %6s %14s %14s %14s %14s %14s %14s %5s %6s %s\n",
		"workload", "metric", "unit", "parent_med", "parent_q1", "parent_q3", "change_med", "change_q1", "change_q3", "won", "bound", "verdict")
	row := func(w, name, unit, mode string, higher bool, bound float64) {
		xa, xb := series(a, w, mode, name), series(b, w, mode, name)
		if len(xa) == 0 || len(xb) == 0 {
			return
		}
		c := compareRuns(xa, xb, higher, bound)
		bs := "-"
		if bound >= 0 {
			bs = formatValue(bound)
		}
		if bound >= 0 {
			switch c.verdict {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
		}
		fmt.Printf("%-14s %-30s %6s %14.6g %14.6g %14.6g %14.6g %14.6g %14.6g %5.2f %6s %s (n=%d/%d)\n",
			w, name, unit, c.medA, c.q1A, c.q3A, c.medB, c.q1B, c.q3B, c.won, bs, c.verdict, len(xa), len(xb))
	}
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			row(wl.Name, m.Name, m.Unit, "e2e", m.Better == "higher", m.Bound)
		}
		for _, m := range bf.PerLayer {
			row(wl.Name, m.Name, m.Unit, "trace", m.Better == "higher", -1)
		}
	}
	fa, fb := failures(a), failures(b)
	fmt.Printf("failed operations: parent %d, change %d\n", fa, fb)
	fmt.Printf("end-to-end pairs worse: %d, unresolved: %d\n", worse, unresolved)
	if fb > fa {
		fmt.Println("the change failed more operations than the parent: no gain counts")
		return 1
	}
	if worse+unresolved > 0 {
		return 1
	}
	return 0
}
