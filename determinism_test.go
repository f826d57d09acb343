package lamofinder

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"lamofinder/internal/dataset"
	"lamofinder/internal/label"
	"lamofinder/internal/motif"
	"lamofinder/internal/predict"
)

// runPaperPipeline executes the full pipeline on the paper-example
// dataset — mine motifs, score uniqueness against randomized networks
// (the parallel code path), label with LaMoFinder, predict functions —
// and serializes every stage into one byte stream.
func runPaperPipeline() ([]byte, error) {
	pe := dataset.NewPaperExample()

	mineCfg := motif.DefaultConfig()
	mineCfg.MinSize = 3
	mineCfg.MaxSize = 4
	mineCfg.MinFreq = 3
	motifs := motif.Find(pe.Network, mineCfg)

	null := motif.DefaultUniquenessConfig()
	null.Networks = 8
	motif.ScoreUniqueness(pe.Network, motifs, null)

	labeler := label.NewLabeler(pe.Corpus, label.DefaultConfig())
	var labeled []*label.LabeledMotif
	for _, m := range motifs {
		labeled = append(labeled, labeler.LabelMotif(m)...)
	}

	var buf bytes.Buffer
	if err := label.WriteMotifs(&buf, pe.Ontology, labeled); err != nil {
		return nil, err
	}

	task := predict.NewTask(pe.Network, pe.Ontology.NumTerms())
	for p := 0; p < pe.Network.N(); p++ {
		for _, t := range pe.Corpus.Terms(p) {
			task.Functions[p] = append(task.Functions[p], int(t))
		}
	}
	scorer := label.NewScorer(task, labeled)
	for p := 0; p < pe.Network.N(); p++ {
		fmt.Fprintf(&buf, "p%d:", p+1)
		for _, s := range scorer.Scores(p) {
			fmt.Fprintf(&buf, " %.12g", s)
		}
		fmt.Fprintln(&buf)
	}
	return buf.Bytes(), nil
}

// TestPipelineDeterminism is the regression gate behind the lamovet rules:
// two runs of the full pipeline (motif find -> uniqueness -> label ->
// predict) with the same seed must produce byte-identical serialized
// output, including the uniqueness stage that fans out one goroutine per
// randomized network.
func TestPipelineDeterminism(t *testing.T) {
	first, err := runPaperPipeline()
	if err != nil {
		t.Fatalf("pipeline run 1: %v", err)
	}
	if len(first) == 0 {
		t.Fatal("pipeline produced no output")
	}
	if !bytes.Contains(first, []byte("\n")) {
		t.Fatal("pipeline output not line-structured")
	}
	for run := 2; run <= 3; run++ {
		again, err := runPaperPipeline()
		if err != nil {
			t.Fatalf("pipeline run %d: %v", run, err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("pipeline output differs between run 1 and run %d:\nrun1 (%d bytes):\n%s\nrun%d (%d bytes):\n%s",
				run, len(first), truncate(first), run, len(again), truncate(again))
		}
	}
}

// TestPipelineDeterminismAcrossGOMAXPROCS cross-checks the worker pools:
// the serialized pipeline output must be byte-identical whether the
// runtime schedules everything on one processor or spreads the pools over
// four. Combined with TestPipelineDeterminism this certifies that no
// parallel stage lets the worker count leak into the result — the chunking
// is worker-independent and every merge is index-ordered.
func TestPipelineDeterminismAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	serial, err := runPaperPipeline()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatalf("pipeline at GOMAXPROCS=1: %v", err)
	}

	prev = runtime.GOMAXPROCS(4)
	wide, err := runPaperPipeline()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatalf("pipeline at GOMAXPROCS=4: %v", err)
	}

	if !bytes.Equal(serial, wide) {
		t.Fatalf("pipeline output depends on GOMAXPROCS:\nGOMAXPROCS=1 (%d bytes):\n%s\nGOMAXPROCS=4 (%d bytes):\n%s",
			len(serial), truncate(serial), len(wide), truncate(wide))
	}
}

// TestLabelParallelismKnobDeterminism pins the explicit Parallelism knob:
// the labeled-motif stream must be identical at worker counts 1, 2, and 5
// on the same mined motifs.
func TestLabelParallelismKnobDeterminism(t *testing.T) {
	pe := dataset.NewPaperExample()
	mineCfg := motif.DefaultConfig()
	mineCfg.MinSize = 3
	mineCfg.MaxSize = 4
	mineCfg.MinFreq = 3
	motifs := motif.Find(pe.Network, mineCfg)

	var want []byte
	for _, workers := range []int{1, 2, 5} {
		lcfg := label.DefaultConfig()
		lcfg.Parallelism = workers
		labeler := label.NewLabeler(pe.Corpus, lcfg)
		labeled := labeler.LabelAll(motifs)
		var buf bytes.Buffer
		if err := label.WriteMotifs(&buf, pe.Ontology, labeled); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = buf.Bytes()
			if len(want) == 0 {
				t.Fatal("no labeled output")
			}
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("labeled output differs between Parallelism=1 and Parallelism=%d", workers)
		}
	}
}

func truncate(b []byte) []byte {
	const max = 2000
	if len(b) <= max {
		return b
	}
	return append(append([]byte(nil), b[:max]...), []byte("...")...)
}
