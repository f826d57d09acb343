package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-5); got < 1 {
		t.Fatalf("Workers(-5) = %d, want >= 1", got)
	}
}

func TestDoCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		hits := make([]int32, n)
		Do(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
	Do(0, 4, func(int) { t.Fatal("fn called for n=0") })
	Do(-3, 4, func(int) { t.Fatal("fn called for n<0") })
}

// TestDoRunsOnCaller: the calling goroutine is one of Do's workers, so w
// workers start only w-1 goroutines.
func TestDoRunsOnCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	var extra atomic.Int64
	Do(256, 3, func(int) {
		g := int64(runtime.NumGoroutine() - base)
		for {
			old := extra.Load()
			if g <= old || extra.CompareAndSwap(old, g) {
				return
			}
		}
	})
	if got := extra.Load(); got > 2 {
		t.Fatalf("Do with 3 workers ran %d goroutines beside the caller, want at most 2", got)
	}
}

func TestChunksBoundariesIndependentOfWorkers(t *testing.T) {
	const n, size = 103, 10
	want := NumChunks(n, size)
	if want != 11 {
		t.Fatalf("NumChunks(103, 10) = %d, want 11", want)
	}
	for _, workers := range []int{1, 4} {
		type rng struct{ lo, hi int }
		got := make([]rng, want)
		Chunks(n, size, workers, func(c, lo, hi int) { got[c] = rng{lo, hi} })
		covered := 0
		for c, r := range got {
			if r.lo != c*size {
				t.Fatalf("workers=%d chunk %d: lo=%d", workers, c, r.lo)
			}
			covered += r.hi - r.lo
		}
		if covered != n {
			t.Fatalf("workers=%d: covered %d of %d", workers, covered, n)
		}
		if got[want-1].hi != n {
			t.Fatalf("workers=%d: last chunk ends at %d", workers, got[want-1].hi)
		}
	}
	if NumChunks(0, 10) != 0 || NumChunks(10, 0) != 0 {
		t.Fatal("NumChunks must be 0 for empty input or non-positive size")
	}
}
