package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// AccessRecord is one request's access-log line, captured as plain values
// on the hot path and encoded later by the drain goroutine. The string
// fields are references (no copy is taken): method and route are
// compile-time constants in practice, and a trace ID string is immutable,
// so holding it until the drain runs is safe and allocation-free.
type AccessRecord struct {
	Time     time.Time
	TraceID  string
	Method   string
	Route    string
	Status   int
	Duration time.Duration
}

// AccessLog decouples request logging from request serving: handlers Push
// fixed-size records into a bounded ring (mutex-guarded struct copy — no
// allocation, no I/O, no formatting) and a single drain goroutine encodes
// and writes them. When the ring is full the record is dropped and
// counted, never blocking a request on a slow log destination.
type AccessLog struct {
	logger *Logger

	mu   sync.Mutex
	ring []AccessRecord
	head int
	n    int

	dropped atomic.Int64

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
	stop sync.Once

	scratch []AccessRecord // drain-goroutine-only batch buffer
}

// NewAccessLog builds a ring of the given capacity (<=0 selects 1024) and
// starts its drain goroutine. Close stops the goroutine after flushing.
// A logger that drops Info lines (nil, or a level above info) yields a nil
// AccessLog, whose methods all no-op, so "logging disabled" needs no
// branches at call sites and no request pushes a record only to have it
// dropped.
func NewAccessLog(logger *Logger, capacity int) *AccessLog {
	if !logger.Enabled(LevelInfo) {
		return nil
	}
	if capacity <= 0 {
		capacity = 1024
	}
	a := &AccessLog{
		logger:  logger,
		ring:    make([]AccessRecord, capacity),
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		scratch: make([]AccessRecord, 0, capacity),
	}
	go a.drain()
	return a
}

// Push enqueues one record; it never blocks and never allocates. Full ring
// drops the record and bumps the drop counter.
func (a *AccessLog) Push(rec AccessRecord) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.n == len(a.ring) {
		a.mu.Unlock()
		a.dropped.Add(1)
		return
	}
	a.ring[(a.head+a.n)%len(a.ring)] = rec
	a.n++
	a.mu.Unlock()
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// Dropped returns the number of records lost to a full ring.
func (a *AccessLog) Dropped() int64 {
	if a == nil {
		return 0
	}
	return a.dropped.Load()
}

// Close flushes buffered records and stops the drain goroutine. Safe to
// call more than once and on a nil receiver.
func (a *AccessLog) Close() {
	if a == nil {
		return
	}
	a.stop.Do(func() { close(a.quit) })
	<-a.done
}

func (a *AccessLog) drain() {
	defer close(a.done)
	for {
		select {
		case <-a.wake:
			a.flush()
		case <-a.quit:
			a.flush()
			return
		}
	}
}

// flush pops every buffered record into the drain-only scratch batch and
// encodes them outside the lock, so a slow writer never stalls Push.
func (a *AccessLog) flush() {
	a.mu.Lock()
	batch := a.scratch[:0]
	for i := 0; i < a.n; i++ {
		batch = append(batch, a.ring[(a.head+i)%len(a.ring)])
		a.ring[(a.head+i)%len(a.ring)] = AccessRecord{} // drop string refs
	}
	a.head = 0
	a.n = 0
	a.mu.Unlock()
	for i := range batch {
		a.logger.access(&batch[i])
		batch[i] = AccessRecord{}
	}
	a.scratch = batch[:0]
}

// access writes one access line through the logger's one line encoder:
// the record's own time, level info, msg "access", and five fixed fields
// in a stack array, never fmt or a variadic call. This is the path the
// serve alloc-budget gate measures with logging enabled.
//
// alloc-budget: 0
func (l *Logger) access(rec *AccessRecord) {
	if !l.Enabled(LevelInfo) {
		return
	}
	fields := [5]Field{
		String("trace", rec.TraceID),
		String("method", rec.Method),
		String("route", rec.Route),
		Int64("status", int64(rec.Status)),
		Int64("dur_us", rec.Duration.Microseconds()),
	}
	l.line(rec.Time, LevelInfo, "access", fields[:])
}
