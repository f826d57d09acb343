package main

import (
	"flag"
	"fmt"
	"io"
)

// options is predictfn's parsed and validated command line.
type options struct {
	proteins    int
	edges       int
	seed        int64
	quick       bool
	noProdistin bool
	gibbs       bool
}

// minProteins is the smallest benchmark that can mine anything: below this
// the planted-template pools don't fit and the informative-FC border is
// empty, so the pipeline would "succeed" with a model that predicts nothing.
const minProteins = 50

// parseFlags parses and validates predictfn's arguments. It returns
// flag.ErrHelp for -h/-help and a descriptive error (already echoed to
// stderr by the FlagSet where applicable) for anything malformed — the
// caller exits 2 rather than proceeding with a zero-value config.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("predictfn", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.proteins, "proteins", 0, "override protein count (0 = preset)")
	fs.IntVar(&o.edges, "edges", 0, "override interaction count (0 = preset)")
	fs.Int64Var(&o.seed, "seed", 0, "override dataset seed (0 = preset)")
	fs.BoolVar(&o.quick, "quick", false, "reduced-scale preset")
	fs.BoolVar(&o.noProdistin, "noprodistin", false, "skip PRODISTIN (O(n^3) tree)")
	fs.BoolVar(&o.gibbs, "gibbs", false, "add the Gibbs-sampling MRF as a sixth method")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

func (o *options) validate() error {
	if o.proteins < 0 {
		return fmt.Errorf("-proteins must be non-negative, got %d", o.proteins)
	}
	if o.edges < 0 {
		return fmt.Errorf("-edges must be non-negative, got %d", o.edges)
	}
	if o.proteins > 0 && o.proteins < minProteins {
		return fmt.Errorf("-proteins %d is below the minimum benchmark size %d", o.proteins, minProteins)
	}
	return nil
}
