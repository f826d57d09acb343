package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// smokeRun is the run time of each smoke run.
const smokeRun = 300 * time.Millisecond

// smoke runs every workload in both modes on the quick preset for
// smokeRun each, and checks the benchmark's contract: BENCHMARK.json
// declares the metrics this program emits, every run emits each of them
// with its unit, and no operation fails. work holds the build output; logf
// sees each run's wall time.
func smoke(ctx context.Context, root, work string, logf func(format string, args ...any)) error {
	bf, err := readBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := checkDeclarations(bf); err != nil {
		return err
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			opts := options{root: root, work: work, workload: w, seed: 1, dur: smokeRun, trace: trace, quick: true}
			t0 := time.Now()
			rec, err := benchRun(ctx, opts)
			logf("bench smoke: %s (trace %v): %.2fs", w, trace, time.Since(t0).Seconds())
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", w, trace, err)
			}
			if rec.Failed != 0 || !rec.Correct {
				return fmt.Errorf("%s (trace %v): %d of %d operations failed", w, trace, rec.Failed, rec.Attempted)
			}
			if err := checkEmitted(bf, rec); err != nil {
				return fmt.Errorf("%s (trace %v): %w", w, trace, err)
			}
		}
	}
	return nil
}

// checkDeclarations verifies that BENCHMARK.json names this program's
// workloads and metrics, in order, with the same units.
func checkDeclarations(bf *benchmarkFile) error {
	var wls []string
	for _, w := range bf.Workloads {
		wls = append(wls, w.Name)
	}
	if !slices.Equal(wls, workloadNames) {
		return fmt.Errorf("BENCHMARK.json workloads %v, program runs %v", wls, workloadNames)
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, e2eMetrics) {
		return fmt.Errorf("BENCHMARK.json end_to_end %v, program emits %v", e2e, e2eMetrics)
	}
	if !slices.Equal(layers, layerMetrics) {
		return fmt.Errorf("BENCHMARK.json per_layer %v, program emits %v", layers, layerMetrics)
	}
	return nil
}

// checkEmitted verifies that a run's printed metrics carry every metric
// its mode declares, with the declared unit.
func checkEmitted(bf *benchmarkFile, rec *record) error {
	b, err := json.Marshal(rec.Metrics)
	if err != nil {
		return err
	}
	var got map[string]metricValue
	if err := json.Unmarshal(b, &got); err != nil {
		return err
	}
	want := map[string]string{}
	if rec.Mode == "e2e" {
		for _, m := range bf.EndToEnd {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range bf.PerLayer {
			want[m.Name] = m.Unit
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, d := range rec.Metrics.defs {
		if u, ok := want[d.name]; !ok || got[d.name].Unit != u {
			return fmt.Errorf("metric %s: emitted unit %q, declared %q", d.name, got[d.name].Unit, u)
		}
	}
	return nil
}

func runSmoke(args []string) int {
	fs := flag.NewFlagSet("bench smoke", flag.ContinueOnError)
	root := fs.String("root", ".", "repository checkout to build and measure")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err == nil {
		err = smoke(context.Background(), abs, filepath.Join(abs, ".bench_build", "smoke"), func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench smoke: %v\n", err)
		return 1
	}
	fmt.Println("bench smoke: ok")
	return 0
}
