package experiments

import (
	"reflect"
	"strings"
	"testing"

	"lamofinder/internal/dataset"
	"lamofinder/internal/label"
	"lamofinder/internal/motif"
	"lamofinder/internal/obs"
	"lamofinder/internal/par"
)

// TestMineLabeledTraced pins two properties of MineLabeled's stage
// timing: Mined.Stages holds the pipeline's stages in order with plausible
// contents, and timing never changes the mined output (the injected
// clustering clock is telemetry only): the same pipeline run without a
// clock labels the same motifs.
func TestMineLabeledTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test skipped in -short mode")
	}
	cfg := QuickFigure9Config()
	cfg.MIPS.Proteins = 300
	cfg.MIPS.Edges = 420
	cfg.Null.Networks = 2
	cfg.Label.MinDirect = 6

	traced := MineLabeled(cfg)
	m := dataset.NewMIPS(cfg.MIPS)
	mined := motif.Find(m.Task.Network, cfg.Mine)
	motif.ScoreUniqueness(m.Task.Network, mined, cfg.Null)
	unique := motif.FilterUnique(mined, cfg.MinUniqueness)
	plain := label.NewLabeler(m.Corpus, cfg.Label).LabelAll(unique)

	stages := traced.Stages
	wantOrder := []string{"census", "uniqueness", "labeling", "clustering"}
	if len(stages) != len(wantOrder) {
		t.Fatalf("recorded %d stages, want %d: %+v", len(stages), len(wantOrder), stages)
	}
	for i, name := range wantOrder {
		if stages[i].Name != name {
			t.Fatalf("stage %d = %q, want %q", i, stages[i].Name, name)
		}
	}
	if stages[0].Items != int64(traced.MinedClasses) {
		t.Errorf("census items %d, mined classes %d", stages[0].Items, traced.MinedClasses)
	}
	if stages[0].Workers != par.Workers(0) {
		t.Errorf("census workers %d, want GOMAXPROCS = %d", stages[0].Workers, par.Workers(0))
	}
	if stages[1].Items != int64(traced.UniqueMotifs) {
		t.Errorf("uniqueness items %d, unique motifs %d", stages[1].Items, traced.UniqueMotifs)
	}
	if stages[2].Items != int64(len(traced.Labeled)) {
		t.Errorf("labeling items %d, labeled %d", stages[2].Items, len(traced.Labeled))
	}
	for _, s := range stages[:3] {
		if s.Wall <= 0 {
			t.Errorf("stage %s has non-positive wall time %v", s.Name, s.Wall)
		}
	}
	// Clustering busy time is accumulated by the injected clock and
	// mirrored into the labeling stage's Busy column.
	if stages[2].Busy != stages[3].Wall {
		t.Errorf("labeling busy %v != clustering wall %v", stages[2].Busy, stages[3].Wall)
	}
	if traced.UniqueMotifs > 0 && stages[3].Wall <= 0 {
		t.Error("clustering recorded zero busy time despite unique motifs")
	}

	if traced.MinedClasses != len(mined) || traced.UniqueMotifs != len(unique) {
		t.Fatalf("timing changed pipeline statistics: %d/%d vs %d/%d",
			traced.MinedClasses, traced.UniqueMotifs, len(mined), len(unique))
	}
	if !reflect.DeepEqual(traced.Labeled, plain) {
		t.Fatal("timing changed the labeled motifs")
	}

	var sb strings.Builder
	if err := obs.WriteStageTable(&sb, stages); err != nil {
		t.Fatal(err)
	}
	for _, name := range wantOrder {
		if !strings.Contains(sb.String(), name) {
			t.Fatalf("stage table missing %q:\n%s", name, sb.String())
		}
	}
}
