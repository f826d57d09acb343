package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock pins logger timestamps for byte-level assertions.
func fixedClock() time.Time {
	return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
}

// SetClock replaces the logger's timestamp source.
func (l *Logger) SetClock(now func() time.Time) { l.now = now }

func TestLoggerJSONLine(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.SetClock(fixedClock)
	l.Info("serving", String("addr", "127.0.0.1:8077"), Int64("proteins", 600), Int64("elapsed", 1500))
	line := buf.String()
	want := `{"ts":"2026-08-05T12:00:00Z","level":"info","msg":"serving","addr":"127.0.0.1:8077","proteins":600,"elapsed":1500}` + "\n"
	if line != want {
		t.Fatalf("line = %q, want %q", line, want)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(line), &decoded); err != nil {
		t.Fatalf("line is not valid JSON: %v", err)
	}
}

func TestLoggerLevelGating(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn)
	l.Info("nope")
	l.Warn("yes")
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("wrote %d lines, want 1: %q", n, buf.String())
	}
	var nilLogger *Logger
	nilLogger.Info("no-op on nil") // must not panic
	if nilLogger.Enabled(LevelError) {
		t.Fatal("nil logger reports enabled")
	}
}

func TestLoggerEscaping(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.SetClock(fixedClock)
	msg := "quote \" backslash \\ newline\n tab\t ctrl \x01 end"
	l.Info(msg, String("unit", "µs 漢"))
	want := `{"ts":"2026-08-05T12:00:00Z","level":"info","msg":"quote \" backslash \\ newline\n tab\t ctrl \u0001 end","unit":"µs 漢"}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("line = %q, want %q", got, want)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("escaped line is not valid JSON: %v (%q)", err, buf.String())
	}
	if decoded["msg"] != msg || decoded["unit"] != "µs 漢" {
		t.Fatalf("round trip lost content: %v", decoded)
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn, "error": LevelError, "off": LevelOff} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("ParseLevel accepted junk")
	}
}

func TestAccessLogDrainAndContent(t *testing.T) {
	var buf syncBuffer
	l := NewLogger(&buf, LevelInfo)
	l.SetClock(fixedClock)
	a := NewAccessLog(l, 16)
	// Each line carries its record's own time in UTC, not the logger's
	// clock and not the record's zone.
	cest := time.FixedZone("CEST", 2*3600)
	a.Push(AccessRecord{
		Time: time.Date(2026, 8, 5, 14, 30, 0, 123456000, cest), TraceID: "t-1", Method: "GET",
		Route: "/v1/predict", Status: 200, Duration: 250 * time.Microsecond,
	})
	a.Push(AccessRecord{
		Time: time.Date(2026, 8, 5, 14, 30, 1, 0, cest), TraceID: "t-2", Method: "POST",
		Route: "/v1/predict", Status: 404, Duration: 80 * time.Microsecond,
	})
	a.Close() // flushes before stopping
	want := `{"ts":"2026-08-05T12:30:00.123456Z","level":"info","msg":"access","trace":"t-1","method":"GET","route":"/v1/predict","status":200,"dur_us":250}` + "\n" +
		`{"ts":"2026-08-05T12:30:01Z","level":"info","msg":"access","trace":"t-2","method":"POST","route":"/v1/predict","status":404,"dur_us":80}` + "\n"
	out := buf.String()
	if out != want {
		t.Fatalf("access lines = %q, want %q", out, want)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var decoded map[string]any
		if err := json.Unmarshal([]byte(line), &decoded); err != nil {
			t.Fatalf("access line is not valid JSON: %v (%q)", err, line)
		}
	}
}

func TestAccessLogDropsWhenFull(t *testing.T) {
	// A logger over a blocked writer: the drain goroutine stalls on the
	// first record, the ring fills, and further pushes drop.
	blocked := make(chan struct{})
	l := NewLogger(writerFunc(func(p []byte) (int, error) { <-blocked; return len(p), nil }), LevelInfo)
	a := NewAccessLog(l, 4)
	for i := 0; i < 32; i++ {
		a.Push(AccessRecord{TraceID: "x", Method: "GET", Route: "/v1/predict"})
	}
	if a.Dropped() == 0 {
		t.Fatal("full ring never dropped")
	}
	close(blocked)
	a.Close()
}

func TestAccessLogNilSafe(t *testing.T) {
	var a *AccessLog
	a.Push(AccessRecord{})
	a.Close()
	if a.Dropped() != 0 {
		t.Fatal("nil access log dropped something")
	}
	if got := NewAccessLog(nil, 8); got != nil {
		t.Fatal("NewAccessLog(nil logger) should be nil")
	}
	for _, lv := range []Level{LevelWarn, LevelError, LevelOff} {
		if got := NewAccessLog(NewLogger(io.Discard, lv), 8); got != nil {
			t.Fatalf("NewAccessLog at level %v should be nil: it would drop every line", lv)
		}
	}
}

func TestTracerNextID(t *testing.T) {
	tr := NewTracer("r", 0, 0)
	if a, b := tr.NextID(), tr.NextID(); a != "r-1" || b != "r-2" {
		t.Fatalf("trace sequence = %s, %s", a, b)
	}
	// Sampling draws on its own counter: it never skips an ID.
	tr.Sample(false)
	if got := tr.NextID(); got != "r-3" {
		t.Fatalf("ID after a sampling decision = %s, want r-3", got)
	}
	if got := NewTracer("gw", 0, 0).NextID(); got != "gw-1" {
		t.Fatalf("fresh tracer's first ID = %s", got)
	}
}

func TestValidTraceID(t *testing.T) {
	for _, ok := range []string{"abc", "A-1_b.2", strings.Repeat("x", 64), "...", ".a", "a.."} {
		if !ValidTraceID(ok) {
			t.Errorf("ValidTraceID(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "has space", "new\nline", `quo"te`, strings.Repeat("x", 65), "héllo", ".", ".."} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true", bad)
		}
	}
}

func TestStageRecorder(t *testing.T) {
	var r StageRecorder
	st := r.Start("census")
	time.Sleep(time.Millisecond)
	st.End(152, 4)
	r.Record(StageStat{Name: "clustering", Wall: 2 * time.Second, Items: 1840, Workers: 4, Busy: 6 * time.Second})
	got := r.Stages()
	if len(got) != 2 || got[0].Name != "census" || got[0].Items != 152 || got[0].Wall <= 0 {
		t.Fatalf("stages = %+v", got)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "census") || !strings.Contains(out, "clustering") || !strings.Contains(out, "75%") {
		t.Fatalf("stage table: %q", out)
	}

	var nilRec *StageRecorder
	nilRec.Record(StageStat{Name: "x"})
	nilRec.Start("y").End(0, 0)
	if nilRec.Stages() != nil {
		t.Fatal("nil recorder has stages")
	}
}

// syncBuffer is a bytes.Buffer safe for the drain goroutine + test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

var _ io.Writer = writerFunc(nil)
