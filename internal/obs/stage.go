package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"
)

// StageStat describes one pipeline stage of an offline build: wall time,
// items processed, and the worker count the stage ran with. Busy, when
// non-zero, is the summed worker-busy time inside the stage (its
// cumulative CPU-side cost), from which WriteStageTable derives
// utilization as Busy / (Wall × Workers).
type StageStat struct {
	Name    string
	Wall    time.Duration
	Items   int64
	Workers int
	Busy    time.Duration
}

// StageRecorder collects StageStats in recording order, safe for
// concurrent use.
type StageRecorder struct {
	mu     sync.Mutex
	stages []StageStat
}

// Record appends one finished stage.
func (r *StageRecorder) Record(s StageStat) {
	r.mu.Lock()
	r.stages = append(r.stages, s)
	r.mu.Unlock()
}

// Stages returns a copy of the recorded stages.
func (r *StageRecorder) Stages() []StageStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]StageStat, len(r.stages))
	copy(out, r.stages)
	return out
}

// WriteStageTable renders stage stats (from a build or an artifact
// snapshot) as the aligned table `lamod build -stats` prints.
func WriteStageTable(w io.Writer, stages []StageStat) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-12s %12s %10s %8s %6s\n", "stage", "wall", "items", "workers", "util")
	for _, s := range stages {
		util := "-"
		if s.Busy > 0 && s.Workers > 0 && s.Wall > 0 {
			util = fmt.Sprintf("%.0f%%", 100*float64(s.Busy)/(float64(s.Wall)*float64(s.Workers)))
		}
		fmt.Fprintf(bw, "%-12s %12s %10d %8d %6s\n",
			s.Name, s.Wall.Round(time.Microsecond), s.Items, s.Workers, util)
	}
	return bw.Flush()
}
