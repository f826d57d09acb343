// Command lamovet runs the project-specific static analysis suite guarding
// the LaMoFinder determinism contract (see DESIGN.md "Static analysis
// gates" and "Interprocedural analysis"). It is stdlib-only and loads
// packages itself, so it runs with `go run ./cmd/lamovet ./...` on a
// dependency-free checkout.
//
// Usage:
//
//	lamovet [-rules taintdet,lockorder,...] [-list] [-json] [-workers N] [patterns...]
//
// Patterns follow the go tool ("./...", "./internal/graph"); with no
// patterns the whole module is analyzed. The per-package rules run in
// parallel across the matched packages; the module-wide rules (taintdet,
// lockorder, goroleak, allocbudget, unreached) run once over an engine
// built from every package of the module, and report on the matched
// ones. -json emits the findings as a JSON array (empty array when clean)
// for the CI artifact. Exit status is 1 if any analyzer reports a finding,
// 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lamofinder/internal/analysis"
)

// jsonDiag is the stable wire shape of one finding in -json mode.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func main() {
	rules := flag.String("rules", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	workers := flag.Int("workers", 0, "per-package analysis parallelism (default: GOMAXPROCS)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lamovet [-rules a,b] [-list] [-json] [-workers N] [patterns...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers, err := analysis.Select(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lamovet:", err)
		os.Exit(2)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lamovet:", err)
		os.Exit(2)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lamovet:", err)
		os.Exit(2)
	}
	loader := analysis.NewLoader(root)
	paths, err := loader.LoadTargets(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lamovet:", err)
		os.Exit(2)
	}

	// The engine sees every package of the module, so interprocedural
	// facts cross package boundaries and unreached sees every caller;
	// diagnostics are reported only for the target paths.
	engine := analysis.NewEngine(loader.Loaded())
	diags := engine.Run(analyzers, paths, *workers)

	if *asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Column:  d.Pos.Column,
				Rule:    d.Rule,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "lamovet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
