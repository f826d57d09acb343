package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTracer("t", 1, 8)
	trace := tr.Start("t-1", NoSpan, "handler")
	if got := trace.ID(); got != "t-1" {
		t.Fatalf("ID = %q, want t-1", got)
	}
	if got := trace.Root(); got != 0 {
		t.Fatalf("Root = %d, want 0", got)
	}
	child := trace.StartSpan(trace.Root(), "child")
	trace.SetDetail(child, "note")
	trace.SetRows(child, 10, 3)
	trace.EndSpan(child)
	grand := trace.StartSpan(child, "grandchild")
	trace.EndSpan(grand)
	if us := tr.Finish(trace); us < 0 {
		t.Fatalf("Finish returned negative duration %d", us)
	}
	out, ok := tr.Store().Get("t-1")
	if !ok {
		t.Fatal("stored trace not found")
	}
	if out.Trace != "t-1" || out.RemoteParent != NoSpan {
		t.Fatalf("trace head = %+v", out)
	}
	if len(out.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(out.Spans))
	}
	if out.Spans[0].Name != "handler" || out.Spans[0].Parent != NoSpan {
		t.Fatalf("root span = %+v", out.Spans[0])
	}
	if out.Spans[1].Parent != 0 || out.Spans[1].Detail != "note" ||
		out.Spans[1].RowsIn != 10 || out.Spans[1].RowsOut != 3 {
		t.Fatalf("child span = %+v", out.Spans[1])
	}
	if out.Spans[2].Parent != child {
		t.Fatalf("grandchild parent = %d, want %d", out.Spans[2].Parent, child)
	}
	for _, s := range out.Spans {
		if s.DurUS < 0 || s.StartUS < 0 {
			t.Fatalf("negative timing in span %+v", s)
		}
	}
}

func TestTraceSpanOverflowCountsDrops(t *testing.T) {
	tr := NewTracer("t", 1, 4)
	trace := tr.Start("t-full", NoSpan, "root")
	for i := 0; i < MaxSpans+5; i++ {
		trace.StartSpan(trace.Root(), "extra")
	}
	if d := trace.Dropped(); d != 6 { // root + (MaxSpans-1) fit; 6 spill
		t.Fatalf("dropped = %d, want 6", d)
	}
	tr.Finish(trace)
	out, ok := tr.Store().Get("t-full")
	if !ok || out.Dropped != 6 || len(out.Spans) != MaxSpans {
		t.Fatalf("stored overflow trace: ok=%v dropped=%d spans=%d", ok, out.Dropped, len(out.Spans))
	}
}

func TestNilTraceAndTracerNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Sample(true) {
		t.Fatal("nil tracer sampled")
	}
	trace := tr.Start("x", NoSpan, "root")
	if trace != nil {
		t.Fatal("nil tracer returned a trace")
	}
	i := trace.StartSpan(trace.Root(), "a") // all no-ops on nil
	trace.SetDetail(i, "d")
	trace.SetRows(i, 1, 2)
	trace.EndSpan(i)
	if us := tr.Finish(trace); us != 0 {
		t.Fatalf("nil Finish = %d", us)
	}
	if tr.Store() != nil {
		t.Fatal("nil tracer has a store")
	}
	if id := tr.NextID(); id != "" {
		t.Fatalf("nil tracer minted %q", id)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer("t", 4, 4)
	var hits int
	for i := 0; i < 16; i++ {
		if tr.Sample(false) {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("1-in-4 sampling hit %d of 16", hits)
	}
	if !tr.Sample(true) {
		t.Fatal("forced request not sampled")
	}
	forcedOnly := NewTracer("t", -1, 4)
	for i := 0; i < 64; i++ {
		if forcedOnly.Sample(false) {
			t.Fatal("forced-only tracer head-sampled")
		}
	}
	if !forcedOnly.Sample(true) {
		t.Fatal("forced-only tracer refused a forced request")
	}
}

func TestTraceStoreEvictionAndList(t *testing.T) {
	tr := NewTracer("t", 1, 2)
	for _, id := range []string{"a", "b", "c"} {
		trace := tr.Start(id, NoSpan, "root")
		tr.Finish(trace)
	}
	if _, ok := tr.Store().Get("a"); ok {
		t.Fatal("oldest trace should have been evicted from a 2-slot ring")
	}
	for _, id := range []string{"b", "c"} {
		if _, ok := tr.Store().Get(id); !ok {
			t.Fatalf("trace %q missing", id)
		}
	}
	list := tr.Store().List(0)
	if len(list) != 2 || list[0].Trace != "c" || list[1].Trace != "b" {
		t.Fatalf("List = %+v, want [c b]", list)
	}
	if list := tr.Store().List(1); len(list) != 1 || list[0].Trace != "c" {
		t.Fatalf("List(1) = %+v", list)
	}
}

func TestTraceStoreConcurrentPutGet(t *testing.T) {
	tr := NewTracer("t", 1, 8)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				tr.Store().Get("w-1")
				tr.Store().List(4)
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				trace := tr.Start("w-1", NoSpan, "root")
				trace.StartSpan(trace.Root(), "child")
				tr.Finish(trace)
			}
		}()
	}
	writers.Wait()
	close(stop)
	<-readerDone
	if _, ok := tr.Store().Get("w-1"); !ok {
		t.Fatal("no trace survived concurrent publishing")
	}
}

func TestParseTraceContext(t *testing.T) {
	cases := []struct {
		in     string
		id     string
		parent int32
		ok     bool
	}{
		{"gw-7:0", "gw-7", 0, true},
		{"gw-7:31", "gw-7", 31, true},
		{"abc.DEF_1-2:5", "abc.DEF_1-2", 5, true},
		{"", "", 0, false},
		{"gw-7", "", 0, false},
		{":3", "", 0, false},
		{"gw-7:", "", 0, false},
		{"gw-7:x", "", 0, false},
		{"gw-7:-1", "", 0, false},
		{"gw-7:32", "", 0, false}, // parent must index a real span slot
		{"bad id:0", "", 0, false},
		{"gw:7:3", "gw:7", 0, false}, // colon is not a valid ID byte
	}
	for _, c := range cases {
		id, parent, ok := ParseTraceContext(c.in)
		if ok != c.ok || (ok && (id != c.id || parent != c.parent)) {
			t.Errorf("ParseTraceContext(%q) = (%q, %d, %v), want (%q, %d, %v)",
				c.in, id, parent, ok, c.id, c.parent, c.ok)
		}
	}
	if got := FormatTraceContext("gw-7", 3); got != "gw-7:3" {
		t.Fatalf("FormatTraceContext = %q", got)
	}
	id, parent, ok := ParseTraceContext(FormatTraceContext("lamod-19", 12))
	if !ok || id != "lamod-19" || parent != 12 {
		t.Fatalf("round trip = (%q, %d, %v)", id, parent, ok)
	}
}

func TestExemplarSetGet(t *testing.T) {
	var e Exemplar
	if _, _, ok := e.Get(); ok {
		t.Fatal("empty exemplar returned a sample")
	}
	e.Set("t-9", 731)
	id, us, ok := e.Get()
	if !ok || id != "t-9" || us != 731 {
		t.Fatalf("Get = (%q, %d, %v)", id, us, ok)
	}
	e.Set("t-10", 42)
	if id, _, _ := e.Get(); id != "t-10" {
		t.Fatalf("Set did not overwrite: %q", id)
	}
	e.Set("", 1) // empty IDs are ignored
	if id, _, _ := e.Get(); id != "t-10" {
		t.Fatalf("empty-ID Set overwrote: %q", id)
	}
	var nilEx *Exemplar
	nilEx.Set("x", 1)
	if _, _, ok := nilEx.Get(); ok {
		t.Fatal("nil exemplar returned a sample")
	}
}

func TestAppendPromHistogramExemplar(t *testing.T) {
	var h Histogram
	h.RecordMicros(700) // bucket le=0.001024
	var e Exemplar
	e.Set("lamod-42", 700)
	out := string(appendHistogram(nil, "m", `route="predict"`, h.Snapshot(), &e))
	want := `m_bucket{route="predict",le="0.001024"} 1 # {trace_id="lamod-42"} 0.0007`
	if !strings.Contains(out, want) {
		t.Fatalf("exemplar line missing:\nwant substring %q\ngot:\n%s", want, out)
	}
	// Exactly one bucket line carries the exemplar.
	if n := strings.Count(out, "trace_id="); n != 1 {
		t.Fatalf("%d exemplar annotations, want 1", n)
	}
	// Without a recorded exemplar the output matches the exemplar-free
	// rendering.
	var empty Exemplar
	plain := string(appendHistogram(nil, "m", `route="predict"`, h.Snapshot(), nil))
	withEmpty := string(appendHistogram(nil, "m", `route="predict"`, h.Snapshot(), &empty))
	if plain != withEmpty {
		t.Fatalf("empty exemplar perturbed output:\n%s\nvs\n%s", plain, withEmpty)
	}
}
