package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// noSpan is the parent of a root span.
const noSpan = -1

// span is one timed call: name, start, end (ns since the tracer's start)
// and the span that caused it.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory; they are written out when the run
// ends. Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int32, name string) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: -1})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	return time.Duration(end - t.spans[id].Start)
}

// record adds a finished span timed by the caller.
func (t *tracer) record(parent int32, name string, start, end time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// timed runs f inside a span.
func (t *tracer) timed(parent int32, name string, f func()) time.Duration {
	id := t.begin(parent, name)
	f()
	return t.end(id)
}

// layerTime is one span name's aggregate over a run.
type layerTime struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes aggregates spans by name, in order of first appearance. A
// span's self time is its duration minus the part of it that its
// children cover (children that overlap, such as concurrent requests,
// count once).
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfNanos()
	var out []layerTime
	index := map[string]int{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		j, ok := index[s.Name]
		if !ok {
			j = len(out)
			index[s.Name] = j
			out = append(out, layerTime{Name: s.Name})
		}
		out[j].Calls++
		out[j].TotalS += float64(s.End-s.Start) / 1e9
		out[j].SelfS += float64(self[i]) / 1e9
	}
	return out
}

// unattributed returns the share of the named spans' total time that
// none of their children covers.
func (t *tracer) unattributed(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfNanos()
	var total, un int64
	for i, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			total += s.End - s.Start
			un += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(un) / float64(total)
}

// selfNanos computes every span's self time. Callers hold t.mu.
func (t *tracer) selfNanos() []int64 {
	children := make([][]int32, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != noSpan && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		kids := children[i]
		slices.SortFunc(kids, func(a, b int32) int { return cmp.Compare(t.spans[a].Start, t.spans[b].Start) })
		covered := int64(0)
		cur := s.Start // covered up to here
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, cur), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// write stores every finished span as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
