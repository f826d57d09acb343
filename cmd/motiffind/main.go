// Command motiffind mines network motifs from a PPI edge list: frequent
// connected patterns (beam miner to meso-scale, or exact ESU census for
// small sizes) with a randomized-network uniqueness test.
//
// Usage:
//
//	motiffind -edges ppi.tsv [-minfreq N] [-maxsize K] [-esu K] [-uniq U]
package main

import (
	"flag"
	"fmt"
	"os"

	"lamofinder/internal/dataset"
	"lamofinder/internal/graph"
	"lamofinder/internal/motif"
	"lamofinder/internal/randnet"

	"math/rand"
)

func main() {
	edges := flag.String("edges", "", "interaction edge list; empty = synthetic scale-free network")
	n := flag.Int("n", 1000, "synthetic network size (when -edges is empty)")
	minFreq := flag.Int("minfreq", 20, "frequency threshold")
	maxSize := flag.Int("maxsize", 8, "maximum motif size (beam miner)")
	esu := flag.Int("esu", 0, "run the exact ESU census at this size instead of the beam miner")
	nullNets := flag.Int("nullnets", 10, "randomized networks for the uniqueness test")
	uniq := flag.Float64("uniq", 0.9, "uniqueness threshold for the report")
	zscores := flag.Bool("z", false, "also report Milo-style z-scores")
	seed := flag.Int64("seed", 1, "random seed")
	top := flag.Int("top", 25, "motifs to print")
	flag.Parse()

	var net *graph.Graph
	if *edges != "" {
		f, err := os.Open(*edges)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() { _ = f.Close() }() // read-only open; close error is unactionable
		net, _, err = dataset.LoadEdgeList(f)
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		rng := rand.New(rand.NewSource(*seed))
		net = randnet.BarabasiAlbert(*n, 3, 2, rng)
		fmt.Printf("synthetic Barabasi-Albert network\n")
	}
	fmt.Printf("network: %d vertices, %d edges\n", net.N(), net.M())

	var motifs []*motif.Motif
	if *esu > 0 {
		fmt.Printf("exact ESU census at size %d...\n", *esu)
		motifs = motif.CensusESU(net, *esu, 200)
	} else {
		cfg := motif.DefaultConfig()
		cfg.MinFreq = *minFreq
		cfg.MaxSize = *maxSize
		cfg.Seed = *seed
		motifs = motif.Find(net, cfg)
	}
	fmt.Printf("%d pattern classes\n", len(motifs))

	nullCfg := motif.DefaultUniquenessConfig()
	nullCfg.Networks = *nullNets
	nullCfg.Seed = *seed
	motif.ScoreUniqueness(net, motifs, nullCfg)
	var zs []motif.ZScore
	if *zscores {
		zs = motif.ScoreZ(net, motifs, nullCfg)
	}

	printed := 0
	for i, m := range motifs {
		if m.Uniqueness < *uniq {
			continue
		}
		if printed >= *top {
			fmt.Println("  ...")
			break
		}
		switch {
		case zs != nil && !zs[i].Exact:
			// Some randomized count stopped at the cap or the step
			// budget: the mean is a lower bound and gives no z.
			fmt.Printf("  %s z=? (rand ≥%.1f)\n", m, zs[i].RandMean)
		case zs != nil:
			fmt.Printf("  %s z=%.1f (rand %.1f±%.1f)\n", m, zs[i].Z, zs[i].RandMean, zs[i].RandStd)
		default:
			fmt.Printf("  %s\n", m)
		}
		printed++
	}
	if printed == 0 {
		fmt.Printf("no motifs with uniqueness >= %.2f\n", *uniq)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "motiffind: "+format+"\n", args...)
	os.Exit(1)
}
