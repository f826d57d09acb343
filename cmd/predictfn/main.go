// Command predictfn compares the five protein-function prediction methods
// (labeled motif, MRF, Chi-square, NC, PRODISTIN) under leave-one-out on
// the synthetic MIPS-like benchmark, printing the Figure-9 precision/recall
// table. To score one protein offline, run `lamod query` with a
// "protein in" plan against a built artifact.
//
// Usage:
//
//	predictfn [-proteins N] [-edges M] [-seed S] [-quick] [-noprodistin] [-gibbs]
//
// Malformed flags or an invalid dataset configuration exit 2 with usage;
// the tool never proceeds on a zero-value config.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"lamofinder/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	opts, err := parseFlags(args, os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintf(os.Stderr, "predictfn: %v\n", err)
		return 2
	}

	cfg := experiments.DefaultFigure9Config()
	if opts.quick {
		cfg = experiments.QuickFigure9Config()
	}
	if opts.proteins > 0 {
		cfg.MIPS.Proteins = opts.proteins
	}
	if opts.edges > 0 {
		cfg.MIPS.Edges = opts.edges
	}
	if opts.seed != 0 {
		cfg.MIPS.Seed = opts.seed
	}
	if opts.noProdistin {
		cfg.IncludeProdistin = false
	}
	if opts.gibbs {
		cfg.IncludeGibbs = true
	}

	start := time.Now()
	if err := experiments.Figure9(cfg).WriteText(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "predictfn: %v\n", err)
		return 1
	}
	fmt.Printf("[%v]\n", time.Since(start).Round(time.Millisecond))
	return 0
}
