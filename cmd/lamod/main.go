// Command lamod is the labeled-motif model daemon. `lamod build` runs the
// expensive offline pipeline (synthetic MIPS benchmark -> motif mining ->
// uniqueness filter -> LaMoFinder labeling) once and packages the result
// into a checksummed artifact file; `lamod serve` loads such an artifact
// and answers prediction queries over HTTP until SIGTERM/SIGINT; `lamod
// gateway` (the lamogate router) fronts several serve daemons as one
// health-gated, consistently-hashed fleet with rolling artifact rollout.
//
// `lamod query` runs a bulk prediction plan offline, straight from an
// artifact file — the same columnar engine /v1/query serves, without a
// daemon in the way.
//
// Usage:
//
//	lamod build -out FILE [-quick] [-proteins N] [-edges M] [-seed S] [-note TEXT]
//	            [-stats]
//	lamod query -artifact FILE [-plan FILE] [-topk N] [-group-by category]
//	            [-min-degree N] [-max-degree N] [-min-score X]
//	            [-annotated BOOL] [-proteins A,B] [-project COLS]
//	            [-parallelism N]
//	lamod serve -artifact FILE [-addr HOST:PORT] [-parallelism N]
//	            [-timeout D] [-drain D] [-pprof]
//	            [-reload] [-reload-dir DIR]
//	            [-log-level LEVEL] [-trace-sample N] [-exemplars]
//	lamod gateway -replicas HOST:PORT,HOST:PORT,... [-addr HOST:PORT]
//	            [-drain D] [-log-level LEVEL] [-trace-sample N]
//
// build always traces its pipeline stages (census, uniqueness, labeling,
// clustering, ranking) into the artifact's build metadata; -stats prints
// the stage table after the build. serve emits JSON access-log lines to
// stderr at -log-level info and below (-log-level off disables them).
// serve -reload exposes POST /v1/admin/reload for zero-downtime artifact
// swaps (restricted to -reload-dir when set); gateway drives that
// endpoint fleet-wide via POST /v1/admin/rollout, one replica at a time.
//
// build always computes the dense score index (artifact format v4), so
// the daemon answers /v1/predict straight from precomputed rankings and
// /v1/query from the same score columns; serve -parallelism sizes the
// query scan only.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"lamofinder/internal/artifact"
	"lamofinder/internal/experiments"
	"lamofinder/internal/fleet"
	"lamofinder/internal/obs"
	"lamofinder/internal/par"
	"lamofinder/internal/query"
	"lamofinder/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: lamod <build|query|serve|gateway> [flags]")
		return 2
	}
	switch args[0] {
	case "build":
		return runBuild(args[1:])
	case "query":
		return runQuery(args[1:])
	case "serve":
		return runServe(args[1:])
	case "gateway":
		return runGateway(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "lamod: unknown subcommand %q (want build, query, serve, or gateway)\n", args[0])
		return 2
	}
}

func runBuild(args []string) int {
	fs := flag.NewFlagSet("lamod build", flag.ContinueOnError)
	out := fs.String("out", "", "artifact output path (required)")
	quick := fs.Bool("quick", false, "reduced-scale preset")
	proteins := fs.Int("proteins", 0, "override protein count (0 = preset)")
	edges := fs.Int("edges", 0, "override interaction count (0 = preset)")
	seed := fs.Int64("seed", 0, "override dataset seed (0 = preset)")
	note := fs.String("note", "", "free-form note stored in the artifact")
	stats := fs.Bool("stats", false, "print the per-stage build trace after the build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "lamod build: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "lamod build: -out is required")
		fs.Usage()
		return 2
	}
	cfg := experiments.DefaultFigure9Config()
	if *quick {
		cfg = experiments.QuickFigure9Config()
	}
	if *proteins < 0 || *edges < 0 {
		fmt.Fprintln(os.Stderr, "lamod build: -proteins and -edges must be non-negative")
		return 2
	}
	if *proteins > 0 {
		cfg.MIPS.Proteins = *proteins
	}
	if *edges > 0 {
		cfg.MIPS.Edges = *edges
	}
	if *seed != 0 {
		cfg.MIPS.Seed = *seed
	}
	// The generator adds background edges until it reaches the count, so a
	// count above the simple graph's n(n-1)/2 would never finish.
	n := cfg.MIPS.Proteins
	if maxEdges := n * (n - 1) / 2; cfg.MIPS.Edges > maxEdges {
		fmt.Fprintf(os.Stderr, "lamod build: %d interactions cannot fit %d proteins; set -edges to at most %d\n",
			cfg.MIPS.Edges, n, maxEdges)
		return 2
	}

	start := time.Now()
	mined := experiments.MineLabeled(cfg)
	m := mined.MIPS
	art, err := artifact.Build("synthetic-mips", *note, m.Task, m.CategoryNames(),
		m.Corpus, m.Corpus.DirectCounts(), cfg.Label.MinDirect, mined.Labeled)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamod build: %v\n", err)
		return 1
	}
	indexStart := time.Now()
	art.BuildIndex(0)
	// The stage trace rides inside the artifact so `lamoctl inspect` can
	// show where build time went; it is excluded from the identity digest,
	// so rebuilds of the same model keep one digest.
	art.Stats = append(mined.Stages, obs.StageStat{Name: "ranking", Wall: time.Since(indexStart),
		Items: int64(art.Graph.N()), Workers: par.Workers(0)})
	if err := art.SaveFile(*out); err != nil {
		fmt.Fprintf(os.Stderr, "lamod build: %v\n", err)
		return 1
	}
	digest, err := art.Digest()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamod build: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", *out)
	fmt.Printf("  artifact %s indexed (format v%d)\n", digest, artifact.Version)
	fmt.Printf("  proteins=%d interactions=%d functions=%d\n",
		art.Graph.N(), art.Graph.M(), art.NumFunctions)
	fmt.Printf("  mined=%d unique=%d labeled=%d\n",
		mined.MinedClasses, mined.UniqueMotifs, len(mined.Labeled))
	fmt.Printf("  [%v]\n", time.Since(start).Round(time.Millisecond))
	if *stats {
		if err := obs.WriteStageTable(os.Stdout, art.Stats); err != nil {
			fmt.Fprintf(os.Stderr, "lamod build: %v\n", err)
			return 1
		}
	}
	return 0
}

// runQuery executes one bulk plan against an artifact file and streams
// the result JSON — byte-identical to what a daemon serving the same
// artifact would return from /v1/query — to stdout.
func runQuery(args []string) int {
	fs := flag.NewFlagSet("lamod query", flag.ContinueOnError)
	path := fs.String("artifact", "", "artifact file to query (required)")
	parallelism := fs.Int("parallelism", 0, "scan workers (0 = GOMAXPROCS); output bytes do not depend on this")
	pf := query.AddPlanFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "lamod query: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *path == "" {
		fmt.Fprintln(os.Stderr, "lamod query: -artifact is required")
		fs.Usage()
		return 2
	}
	plan, err := pf.Plan()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamod query: %v\n", err)
		return 2
	}
	art, err := artifact.LoadFile(*path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamod query: %v\n", err)
		return 1
	}
	view, err := query.NewView(art, *parallelism)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamod query: %v\n", err)
		return 1
	}
	res, fe := query.Execute(view, plan, *parallelism)
	if fe != nil {
		fmt.Fprintf(os.Stderr, "lamod query: invalid plan: %v\n", fe)
		return 2
	}
	if _, err := res.WriteTo(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "lamod query: %v\n", err)
		return 1
	}
	return 0
}

func runServe(args []string) int {
	fs := flag.NewFlagSet("lamod serve", flag.ContinueOnError)
	path := fs.String("artifact", "", "artifact file to serve (required)")
	addr := fs.String("addr", "127.0.0.1:8077", "listen address")
	parallelism := fs.Int("parallelism", 0, "query scan workers per /v1/query plan (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "per-request deadline (0 = default)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	enablePprof := fs.Bool("pprof", false, "expose /debug/pprof/ (stacks and heap contents; opt-in only)")
	allowReload := fs.Bool("reload", false, "expose POST /v1/admin/reload for zero-downtime artifact swaps")
	reloadDir := fs.String("reload-dir", "", "restrict reload artifact paths to this directory (default: the -artifact file's directory)")
	newLogger := logFlags(fs)
	traceSample := fs.Int("trace-sample", 0, "span-trace head sampling: 1 in N requests (0 = default 16, negative = forced-only)")
	exemplars := fs.Bool("exemplars", false, "annotate /metrics latency histograms with OpenMetrics trace-ID exemplars")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "lamod serve: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *path == "" {
		fmt.Fprintln(os.Stderr, "lamod serve: -artifact is required")
		fs.Usage()
		return 2
	}
	logger, err := newLogger()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamod serve: %v\n", err)
		return 2
	}
	art, err := artifact.LoadFile(*path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamod serve: %v\n", err)
		return 1
	}
	if *allowReload && *reloadDir == "" {
		// Restricting reloads to the directory the serving artifact came
		// from is the safe default; -reload-dir widens it deliberately.
		*reloadDir = filepath.Dir(*path)
	}
	s, err := serve.New(art, serve.Config{
		Parallelism:      *parallelism,
		RequestTimeout:   *timeout,
		EnablePprof:      *enablePprof,
		AllowReload:      *allowReload,
		ReloadDir:        *reloadDir,
		Logger:           logger,
		TraceSampleEvery: *traceSample,
		PromExemplars:    *exemplars,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamod serve: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("serving %s on %s (artifact %s, index scoring)\n", *path, *addr, s.Digest())
	if err := s.ListenAndServe(ctx, *addr, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "lamod serve: %v\n", err)
		return 1
	}
	fmt.Println("shut down cleanly")
	return 0
}

func runGateway(args []string) int {
	fs := flag.NewFlagSet("lamod gateway", flag.ContinueOnError)
	replicas := fs.String("replicas", "", "comma-separated replica addresses, host:port or URLs (required)")
	addr := fs.String("addr", "127.0.0.1:8070", "listen address")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	newLogger := logFlags(fs)
	traceSample := fs.Int("trace-sample", 0, "span-trace head sampling: 1 in N requests (0 = default 16, negative = forced-only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "lamod gateway: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *replicas == "" {
		fmt.Fprintln(os.Stderr, "lamod gateway: -replicas is required")
		fs.Usage()
		return 2
	}
	var members []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			members = append(members, r)
		}
	}
	logger, err := newLogger()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamod gateway: %v\n", err)
		return 2
	}
	rt, err := fleet.New(fleet.Config{
		Replicas:         members,
		Logger:           logger,
		TraceSampleEvery: *traceSample,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamod gateway: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("routing on %s over %d replicas: %s\n",
		*addr, len(rt.Members()), strings.Join(rt.Members(), ", "))
	if err := rt.ListenAndServe(ctx, *addr, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "lamod gateway: %v\n", err)
		return 1
	}
	fmt.Println("shut down cleanly")
	return 0
}

// logFlags registers -log-level, which lamod serve and lamod gateway
// share, and returns the function that builds the JSON logger it selects:
// nil at -log-level off, an error for a value the flag does not accept.
// Logs go to stderr: stdout stays reserved for the operator lines the e2e
// suite reads.
func logFlags(fs *flag.FlagSet) func() (*obs.Logger, error) {
	level := fs.String("log-level", "info", "structured log level: debug, info, warn, error, off")
	return func() (*obs.Logger, error) {
		lv, err := obs.ParseLevel(*level)
		if err != nil || lv >= obs.LevelOff {
			return nil, err
		}
		return obs.NewLogger(os.Stderr, lv), nil
	}
}
