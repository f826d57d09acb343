package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestBuildRejectsEdgesAboveProteinPairs: 60 proteins hold at most 1,770
// interactions, below the preset's 2,448, so build must exit 2 at once
// instead of generating edges forever, and write no artifact.
func TestBuildRejectsEdgesAboveProteinPairs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.lamoart")
	done := make(chan int, 1)
	go func() { done <- run([]string{"build", "-out", out, "-proteins", "60"}) }()
	select {
	case code := <-done:
		if code != 2 {
			t.Fatalf("exit code %d, want 2", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("build -proteins 60 did not return within 5 s")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("artifact written: stat err = %v", err)
	}
}
