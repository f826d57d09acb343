package obs

import "sync"

// Exemplar is one "most recent traced sample" cell for a latency
// histogram (each Family slot owns one): a trace ID plus its root
// duration, written by the serving hot path and rendered into OpenMetrics
// exemplar syntax by Registry.Exposition. Set takes the cell's mutex with
// TryLock and drops the sample when a scrape holds it — exemplars are a
// debugging breadcrumb, not an accounting counter — so recording never
// blocks and never allocates (both fields are header copies).
type Exemplar struct {
	mu  sync.Mutex
	set bool
	id  string
	us  int64
}

// Set records a traced sample. Never blocks, never allocates.
//
// alloc-budget: 0
func (e *Exemplar) Set(id string, us int64) {
	if e == nil || id == "" {
		return
	}
	if !e.mu.TryLock() {
		return
	}
	e.id = id
	e.us = us
	e.set = true
	e.mu.Unlock()
}

// Get returns the current exemplar, if one sample has been recorded.
func (e *Exemplar) Get() (id string, us int64, ok bool) {
	if e == nil {
		return "", 0, false
	}
	e.mu.Lock()
	id, us, ok = e.id, e.us, e.set
	e.mu.Unlock()
	return id, us, ok
}
