//go:build e2e

package e2e

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// timing matches the build's elapsed-time line, the one line it prints
// that a rerun moves.
var timing = regexp.MustCompile(`(?m)^  \[[^\]]+\]$`)

// TestFileBuild builds an artifact from the MIPS fixture's files at the
// quick preset twice, the second time at GOMAXPROCS=1, and pins every line
// both builds print but the timing line, the digest among them. It then
// serves the artifact and pins what lamoctl motifs and one lamoctl predict
// print.
func TestFileBuild(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	args := []string{"build", "-quick", "-out", "files.lamoart"}
	for _, f := range []struct{ flag, name string }{{"-edges", "edges.tsv"}, {"-obo", "go.obo"}, {"-ann", "annotations.tsv"}} {
		path, err := filepath.Abs(mips + f.name)
		if err != nil {
			t.Fatal(err)
		}
		args = append(args, f.flag, path)
	}
	for _, env := range []string{"", "GOMAXPROCS=1"} {
		cmd := exec.Command(lamod, args...)
		cmd.Dir, cmd.Env = dir, append(os.Environ(), env)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("lamod build %s: %v", env, err)
		}
		checkGolden(t, filepath.Join("testdata", "files", "build.golden"), timing.ReplaceAllString(string(out), "  [elapsed]"))
	}

	d := start(t, "lamod", "serve", "-artifact", filepath.Join(dir, "files.lamoart"), "-log-level", "warn")
	checkGolden(t, filepath.Join("testdata", "files", "motifs.golden"), run(t, lamoctl, "motifs", "-server", d.url))
	checkGolden(t, filepath.Join("testdata", "files", "predict.golden"),
		run(t, lamoctl, "predict", "-server", d.url, "-protein", "M0001", "-k", "5"))
	d.stop(t)
}
