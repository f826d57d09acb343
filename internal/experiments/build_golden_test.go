package experiments

import (
	"testing"

	"lamofinder/internal/artifact"
	"lamofinder/internal/dataset"
)

// quickBuildDigest is the identity digest of the `lamod build -quick`
// artifact (empty note). The mined, unique and labeled counts pin the
// stages behind it. A kernel change that moves one uniqueness win or one
// merge moves these numbers.
const (
	quickBuildDigest  = "07aa4bd300fc74c7ddf0e80e6ba1e36f7a6cb10107cb7e06c721910a42a16246"
	quickBuildMined   = 251
	quickBuildUnique  = 113
	quickBuildLabeled = 101
)

// TestQuickBuildGolden runs the `lamod build -quick` path (mine, score
// uniqueness, label, build and index the artifact) and pins its digest and
// stage counts.
func TestQuickBuildGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test skipped in -short mode")
	}
	cfg := QuickFigure9Config()
	m := dataset.NewMIPS(cfg.MIPS)
	mined := MineLabeled(cfg, m.Task.Network, m.Corpus)
	art, err := artifact.Build("synthetic-mips", "", m.Task, m.CategoryNames(),
		m.Corpus, m.Corpus.DirectCounts(), cfg.Label.MinDirect, mined.Labeled)
	if err != nil {
		t.Fatal(err)
	}
	art.BuildIndex(0)
	digest, err := art.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if mined.MinedClasses != quickBuildMined || mined.UniqueMotifs != quickBuildUnique || len(mined.Labeled) != quickBuildLabeled {
		t.Errorf("mined=%d unique=%d labeled=%d, want mined=%d unique=%d labeled=%d",
			mined.MinedClasses, mined.UniqueMotifs, len(mined.Labeled),
			quickBuildMined, quickBuildUnique, quickBuildLabeled)
	}
	if digest != quickBuildDigest {
		t.Errorf("digest %s, want %s", digest, quickBuildDigest)
	}
	if got, want := art.Coverage(), art.NewScorer().Coverage(); got != want {
		t.Errorf("Coverage() = %d, NewScorer().Coverage() = %d", got, want)
	}
}
