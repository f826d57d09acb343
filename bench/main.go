// Command bench is the repository benchmark. It measures LaMoFinder's two
// costs: the offline build (mining, null-model uniqueness, labeling by
// occurrence clustering, artifact indexing) and online serving (single-
// protein predict, bulk query, and predict through the fleet gateway
// while artifacts roll out). README.md describes the workloads and
// metrics.
//
// Run it from the repository root through bench/run.sh, which keeps all
// build output under .bench_build/:
//
//	bash bench/run.sh --workload build|predict|query|fleet-rollout --seed N --seconds S --trace 0|1
//	bash bench/run.sh compare A.jsonl B.jsonl
//	bash bench/run.sh smoke
//
// One more subcommand, `replay`, is the serve workloads' reference, the
// replay server, which the benchmark runs as a child process of itself.
//
// A run prints each metric with its unit, appends a result record to
// .bench_build/results.jsonl (or -out), and prints as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:])
		case "smoke":
			return runSmoke(args[1:])
		case "replay":
			return runReplay(args[1:])
		}
	}
	return runBench(args)
}

func runBench(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: build, predict, query or fleet-rollout")
	seed := fs.Uint64("seed", 1, "seed of the generated requests and arrival times")
	seconds := fs.Int("seconds", 20, "measured time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end run, tracing off; 1: traced per-layer run")
	root := fs.String("root", ".", "repository checkout to build and measure")
	out := fs.String("out", "", "results file to append this run's record to (default <root>/.bench_build/results.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || !slices.Contains(workloadNames, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: want --workload %v --seed N --seconds S>0 --trace 0|1\n", workloadNames)
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := options{root: abs, workload: *workload, seed: *seed,
		dur: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	rec, err := benchRun(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *out == "" {
		*out = filepath.Join(abs, ".bench_build", "results.jsonl")
	}
	if err := appendRecord(*out, rec); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	for _, n := range rec.Notes {
		fmt.Println(n)
	}
	for i, d := range rec.Metrics.defs {
		fmt.Printf("metric %s %s %s\n", d.name, formatValue(rec.Metrics.vals[i]), d.unit)
	}
	line, err := json.Marshal(summary{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// summary is the last line a run prints.
type summary struct {
	Correct   bool           `json:"correct"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	Metrics   orderedMetrics `json:"metrics"`
}

// record is one run's full result, appended to the results file and read
// back by compare.
type record struct {
	Workload  string         `json:"workload"`
	Mode      string         `json:"mode"`
	Seconds   float64        `json:"seconds"`
	Env       environment    `json:"env"`
	Correct   bool           `json:"correct"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	Metrics   orderedMetrics `json:"metrics"`
	Notes     []string       `json:"notes"`
	Layers    []layerTime    `json:"layers,omitempty"`
}

// benchRun builds lamod, runs one workload in one mode, and assembles its
// record. Every child process has ended when it returns.
func benchRun(ctx context.Context, opts options) (*record, error) {
	r, err := newRunner(opts)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.buildLamod(ctx); err != nil {
		return nil, err
	}
	mode, defs := "e2e", e2eMetrics
	if opts.trace {
		mode, defs = "trace", layerMetrics
		err = r.runTrace(ctx)
	} else {
		err = r.runE2E(ctx)
	}
	if err != nil {
		return nil, err
	}
	r.close()
	om, err := collect(defs, r.vals, !opts.trace)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Workload:  opts.workload,
		Mode:      mode,
		Seconds:   opts.dur.Seconds(),
		Env:       r.environment(),
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   om,
		Notes:     r.notes,
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	if r.tr != nil {
		rec.Layers = r.tr.selfTimes()
		for _, l := range rec.Layers {
			rec.Notes = append(rec.Notes, fmt.Sprintf("layer %-32s calls=%-7d total_s=%.6f self_s=%.6f", l.Name, l.Calls, l.TotalS, l.SelfS))
		}
	}
	return rec, nil
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
