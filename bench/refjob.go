package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The reference job is the build workload's reference: a fixed,
// allocation-heavy graph computation on every CPU, like the build's motif
// mining, that no change to the program can move. It enumerates the
// connected 4-vertex subgraphs of a seeded random graph rooted at each
// vertex in turn, keys each by its sorted internal degree sequence, and
// counts the keys in per-worker maps. It runs in this process, in turns
// with `lamod build` (see lamodBuild), so the two meet the same moments of
// the host; its rate is vertices per second.
type refJob struct {
	adj [][]int32
	// order is a seeded permutation of the vertices, the order they are
	// rooted in. A subgraph is counted from its smallest vertex, so a low
	// vertex costs about thirty times what a high one does; in this order
	// every turn roots a like mix.
	order []int32
	// next indexes order, modulo its length: each turn goes on where the
	// last one stopped.
	next atomic.Int64
}

// refChunk is how many vertices a worker roots before it looks at the
// clock again: about 5 ms of work at the paper scale.
const refChunk = 64

func newRefJob(n, m int) *refJob {
	rng := rand.New(rand.NewPCG(1, 2))
	adj := make([][]int32, n)
	for i := 0; i < m; i++ {
		a, b := int32(rng.IntN(n)), int32(rng.IntN(n))
		if a != b {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}
	order := make([]int32, n)
	for i, v := range rng.Perm(n) {
		order[i] = int32(v)
	}
	return &refJob{adj: adj, order: order}
}

// run works for about d on every CPU and returns the vertices rooted and
// the wall time until every worker finished its last chunk. Workers take
// chunks from a shared counter, as the build's parallel stages do, so a
// core that runs slower for a while does less of the work.
func (j *refJob) run(d time.Duration) (vertices int64, took time.Duration) {
	n := int64(len(j.adj))
	start := time.Now()
	deadline := start.Add(d)
	var done atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := map[string]int{}
			for time.Now().Before(deadline) {
				lo := (j.next.Add(refChunk) - refChunk) % n
				hi := min(lo+refChunk, n)
				for _, v := range j.order[lo:hi] {
					extend(j.adj, []int32{v}, c)
				}
				done.Add(hi - lo)
			}
		}()
	}
	wg.Wait()
	return done.Load(), time.Since(start)
}

// extend grows set, whose first vertex is its smallest, by neighbours
// above set[0] until it holds 4 vertices, then counts its key.
func extend(adj [][]int32, set []int32, c map[string]int) {
	if len(set) == 4 {
		deg := make([]byte, 4)
		for i, a := range set {
			for j := i + 1; j < 4; j++ {
				if slices.Contains(adj[a], set[j]) {
					deg[i]++
					deg[j]++
				}
			}
		}
		slices.Sort(deg)
		c[string(deg)]++
		return
	}
	for _, u := range set {
		for _, x := range adj[u] {
			if x > set[0] && !slices.Contains(set, x) {
				extend(adj, append(slices.Clip(set), x), c)
			}
		}
	}
}

// Turns of a build and the reference job. A core's speed changes every
// 0.1 to 1 s on the host these figures come from, so the turns are short
// enough that both meet each of its moods; a fifth of the time goes to the
// reference.
const (
	buildTurn = 400 * time.Millisecond
	refTurn   = 100 * time.Millisecond
)

// turns is what a build alternating with the reference job measured.
type turns struct {
	build       time.Duration // the build's own turns, start to exit
	refVertices int64
	refTook     time.Duration
	switches    int
}

// refPassTime is how long one pass of the reference job over every vertex
// took at the rate measured in the turns.
func (t turns) refPassTime(n int) time.Duration {
	if t.refVertices == 0 {
		return 0
	}
	return time.Duration(float64(t.refTook) * float64(n) / float64(t.refVertices))
}

// alternate runs cmd, already started, in turns with the reference job
// until it exits: cmd runs for buildTurn, is stopped (SIGSTOP) while the
// reference job runs for refTurn, and is continued (SIGCONT). It returns
// cmd.Wait's error. If ctx ends first, cmd is killed.
func (j *refJob) alternate(ctx context.Context, cmd *exec.Cmd) (turns, error) {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var t turns
	timer := time.NewTimer(buildTurn)
	defer timer.Stop()
	for {
		t0 := time.Now()
		select {
		case err := <-done:
			t.build += time.Since(t0)
			return t, err
		case <-ctx.Done():
			_ = cmd.Process.Kill() // stopped or not, SIGKILL ends it
			<-done
			return t, ctx.Err()
		case <-timer.C:
		}
		if err := cmd.Process.Signal(syscall.SIGSTOP); err != nil {
			if errors.Is(err, os.ErrProcessDone) { // it exited as its turn ended
				err = <-done
				t.build += time.Since(t0)
				return t, err
			}
			_ = cmd.Process.Kill() // the stop error is the one to report
			<-done
			return t, fmt.Errorf("stop lamod build: %w", err)
		}
		t.build += time.Since(t0)
		v, d := j.run(refTurn)
		t.refVertices += v
		t.refTook += d
		t.switches++
		if err := cmd.Process.Signal(syscall.SIGCONT); err != nil && !errors.Is(err, os.ErrProcessDone) {
			_ = cmd.Process.Kill() // the continue error is the one to report
			<-done
			return t, fmt.Errorf("continue lamod build: %w", err)
		}
		timer.Reset(buildTurn)
	}
}
