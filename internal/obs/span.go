package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Hierarchical request tracing. A Trace is a bounded tree of spans recorded
// by ONE goroutine (handlers and the fleet router's select loop own their
// trace; concurrent work is attributed post-hoc via AddSpan), pooled by the
// Tracer so a sampled request records spans without allocating, and
// published to the TraceStore with a single struct copy the moment it
// finishes — no deferred hand-off that would keep the pooled Trace out of
// circulation.

// Propagation and sampling headers. X-Trace-Context carries
// "<traceID>:<parentSpanIndex>" from the gateway to a replica so the
// replica's handler spans attach under the gateway's per-attempt span;
// X-Trace-Sample: 1 forces sampling for one request without the client
// having to invent a request ID.
const (
	HeaderTraceContext = "X-Trace-Context"
	HeaderTraceSample  = "X-Trace-Sample"
)

// MaxSpans bounds the spans recorded per trace. The deepest real request
// shape today (gateway routing + hedged attempts + replica handler +
// query operators) is under half this; overflow increments a drop counter
// instead of growing.
const MaxSpans = 32

// NoSpan is the span index meaning "no parent" / "not recorded". Every
// span-recording method accepts it and no-ops, so unsampled requests pay
// one nil check per call site and nothing else.
const NoSpan = int32(-1)

// DefaultTraceSampleEvery is the head-sampling period when the
// configuration leaves it zero: one in every N eligible requests is
// traced, plus every request that forces sampling.
const DefaultTraceSampleEvery = 16

// span is one timed node of the trace tree. start carries the monotonic
// clock, so durations are immune to wall-clock steps.
type span struct {
	name    string
	detail  string
	rowsIn  int64
	rowsOut int64
	start   time.Time
	dur     time.Duration
	parent  int32
}

// Trace is a bounded span tree for one request. The zero Trace is unusable;
// obtain one from Tracer.Start and return it with Tracer.Finish. A nil
// *Trace is a valid no-op recorder: every method tolerates it, so
// "unsampled" needs no branches at call sites. A Trace must only be
// mutated by one goroutine at a time.
type Trace struct {
	id           string
	remoteParent int32
	n            int32
	dropped      int32
	spans        [MaxSpans]span
}

// ID returns the trace ID ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span's index, or NoSpan for a nil trace.
func (t *Trace) Root() int32 {
	if t == nil {
		return NoSpan
	}
	return 0
}

// StartSpan opens a child span under parent and returns its index. When
// the trace is nil or full it returns NoSpan (counting the drop), and the
// caller's later EndSpan/SetRows calls no-op.
//
// alloc-budget: 0
func (t *Trace) StartSpan(parent int32, name string) int32 {
	if t == nil {
		return NoSpan
	}
	if int(t.n) == len(t.spans) {
		t.dropped++
		return NoSpan
	}
	i := t.n
	t.n++
	s := &t.spans[i]
	s.name = name
	s.detail = ""
	s.rowsIn = 0
	s.rowsOut = 0
	s.start = time.Now()
	s.dur = 0
	s.parent = parent
	return i
}

// EndSpan closes span i at the current monotonic clock.
//
// alloc-budget: 0
func (t *Trace) EndSpan(i int32) {
	if t == nil || i < 0 || i >= t.n {
		return
	}
	t.spans[i].dur = time.Since(t.spans[i].start)
}

// SetDetail attaches a short free-form note to span i (cancellation
// reason, upstream member, operator shape). The string is referenced, not
// copied; pass constants or strings that outlive the trace.
//
// alloc-budget: 0
func (t *Trace) SetDetail(i int32, detail string) {
	if t == nil || i < 0 || i >= t.n {
		return
	}
	t.spans[i].detail = detail
}

// SetRows records the row counts flowing through span i (query operators).
//
// alloc-budget: 0
func (t *Trace) SetRows(i int32, in, out int64) {
	if t == nil || i < 0 || i >= t.n {
		return
	}
	t.spans[i].rowsIn = in
	t.spans[i].rowsOut = out
}

// AddSpan records an already-completed span with explicit timing, for work
// measured elsewhere: aggregated query-operator busy time, a remote
// attempt whose bounds were captured by the router loop. Under parallel
// execution such spans may overlap their siblings; start must come from
// the same monotonic clock as the rest of the trace (time.Now).
//
// alloc-budget: 0
func (t *Trace) AddSpan(parent int32, name, detail string, start time.Time, dur time.Duration, rowsIn, rowsOut int64) int32 {
	i := t.StartSpan(parent, name)
	if i < 0 {
		return i
	}
	s := &t.spans[i]
	s.detail = detail
	s.start = start
	s.dur = dur
	s.rowsIn = rowsIn
	s.rowsOut = rowsOut
	return i
}

// Tracer is a server's one telemetry object for requests: it mints the
// IDs of requests that bring none, decides which requests record spans,
// and owns the pooled traces and the bounded store finished traces land
// in. A nil *Tracer never samples and all its methods no-op, so "tracing
// disabled" needs no branches at call sites.
type Tracer struct {
	prefix string
	every  uint64        // head-sampling period; 0 = forced-only
	ctr    atomic.Uint64 // head-sampling counter
	ids    atomic.Uint64 // number of the last minted ID
	pool   sync.Pool
	store  *TraceStore
}

// NewTracer builds a tracer whose minted IDs read "<prefix>-1",
// "<prefix>-2", ... sampleEvery selects head sampling: 0 means
// DefaultTraceSampleEvery, negative disables periodic sampling (forced
// requests still trace). storeSize bounds the finished-trace ring (<=0
// selects the default).
func NewTracer(prefix string, sampleEvery, storeSize int) *Tracer {
	var every uint64
	switch {
	case sampleEvery == 0:
		every = DefaultTraceSampleEvery
	case sampleEvery > 0:
		every = uint64(sampleEvery)
	}
	t := &Tracer{prefix: prefix, every: every, store: NewTraceStore(storeSize)}
	t.pool.New = func() any { return new(Trace) }
	return t
}

// NextID mints the next request ID from the tracer's counter. IDs only
// need to be unique within one process, which a counter gives without
// coordination, and a fresh tracer's sequence is deterministic in tests.
// Minting allocates the ID string; the zero-alloc serving contract holds
// when clients supply X-Request-Id, and minting is the fallback for
// clients that do not.
func (t *Tracer) NextID() string {
	if t == nil {
		return ""
	}
	return t.prefix + "-" + strconv.FormatUint(t.ids.Add(1), 10)
}

// Sample reports whether the next request should record spans: always when
// forced (client-supplied request ID, X-Trace-Sample, or propagated
// context), else deterministically one in every `every` requests.
//
// alloc-budget: 0
func (t *Tracer) Sample(forced bool) bool {
	if t == nil {
		return false
	}
	if forced {
		return true
	}
	return t.every > 0 && t.ctr.Add(1)%t.every == 0
}

// Start checks a pooled Trace out under the given ID and opens its root
// span. remoteParent is the parent span index inside the upstream
// (gateway) trace of the same ID, or NoSpan when this process is the
// root.
//
// alloc-budget: 0
func (t *Tracer) Start(id string, remoteParent int32, root string) *Trace {
	if t == nil {
		return nil
	}
	tr := t.pool.Get().(*Trace)
	tr.id = id
	tr.remoteParent = remoteParent
	tr.n = 0
	tr.dropped = 0
	tr.StartSpan(NoSpan, root)
	return tr
}

// Finish closes every still-open span, publishes the trace to the store
// (one synchronous struct copy — the trace is queryable before Finish
// returns), returns the pooled Trace for reuse, and reports the root
// span's duration in microseconds (the exemplar value). The caller must
// not touch tr after Finish.
//
// alloc-budget: 0
func (t *Tracer) Finish(tr *Trace) int64 {
	if t == nil || tr == nil {
		return 0
	}
	now := time.Now()
	for i := int32(0); i < tr.n; i++ {
		s := &tr.spans[i]
		if s.dur == 0 {
			s.dur = now.Sub(s.start)
		}
	}
	us := tr.spans[0].dur.Microseconds()
	t.store.put(tr)
	t.pool.Put(tr)
	return us
}

// Store exposes the finished-trace ring for the /v1/traces handlers.
func (t *Tracer) Store() *TraceStore {
	if t == nil {
		return nil
	}
	return t.store
}

// ParseTraceContext splits an X-Trace-Context value into its trace ID and
// parent span index. The parse is hand-rolled (no strconv errors) so the
// serving hot path can reject malformed headers without allocating.
//
// alloc-budget: 0
func ParseTraceContext(s string) (id string, parent int32, ok bool) {
	sep := -1
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == ':' {
			sep = i
			break
		}
	}
	if sep <= 0 || sep == len(s)-1 {
		return "", 0, false
	}
	if !ValidTraceID(s[:sep]) {
		return "", 0, false
	}
	var n int32
	for i := sep + 1; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return "", 0, false
		}
		n = n*10 + int32(c-'0')
		if n >= MaxSpans {
			return "", 0, false
		}
	}
	return s[:sep], n, true
}

// FormatTraceContext renders the header value ParseTraceContext reads.
// It allocates; only the gateway's per-attempt issue path calls it, where
// building the outbound request allocates anyway.
func FormatTraceContext(id string, parent int32) string {
	if parent < 0 {
		parent = 0
	}
	return id + ":" + strconv.Itoa(int(parent))
}

// TraceSummary is the fixed-size digest of one finished trace: one entry
// of the GET /v1/traces listing.
type TraceSummary struct {
	Trace   string `json:"trace"`
	Root    string `json:"root"`
	Spans   int32  `json:"spans"`
	Dropped int32  `json:"dropped_spans,omitempty"`
	DurUS   int64  `json:"dur_us"`
}
