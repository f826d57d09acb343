package experiments

import (
	"reflect"
	"strings"
	"testing"

	"lamofinder/internal/obs"
	"lamofinder/internal/par"
)

// TestMineLabeledTraced pins two properties of stage tracing: the recorder
// sees the pipeline's stages in order with plausible contents, and tracing
// never changes the mined output (the injected clock is telemetry only).
func TestMineLabeledTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test skipped in -short mode")
	}
	cfg := QuickFigure9Config()
	cfg.MIPS.Proteins = 300
	cfg.MIPS.Edges = 420
	cfg.Null.Networks = 2
	cfg.Label.MinDirect = 6

	var rec obs.StageRecorder
	traced := MineLabeledTraced(cfg, &rec)
	plain := MineLabeled(cfg)

	stages := rec.Stages()
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

	if traced.MinedClasses != plain.MinedClasses || traced.UniqueMotifs != plain.UniqueMotifs {
		t.Fatalf("tracing changed pipeline statistics: %+v vs %+v", traced, plain)
	}
	if !reflect.DeepEqual(traced.Labeled, plain.Labeled) {
		t.Fatal("tracing changed the labeled motifs")
	}

	var sb strings.Builder
	if err := rec.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range wantOrder {
		if !strings.Contains(sb.String(), name) {
			t.Fatalf("stage table missing %q:\n%s", name, sb.String())
		}
	}
}
