package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"lamofinder/internal/jsonx"
)

// Level orders log severities. LevelOff disables every message.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

// ParseLevel reads a -log-level flag value.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off":
		return LevelOff, nil
	}
	return LevelOff, fmt.Errorf("unknown log level %q (want debug, info, warn, error, or off)", s)
}

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return "off"
}

// Field is one key/value pair of a structured log line. Construct fields
// with String/Int64/Dur so the encoder never reflects.
type Field struct {
	Key  string
	str  string
	num  int64
	kind uint8 // 0 = string, 1 = int64
}

// String builds a string-valued field.
func String(k, v string) Field { return Field{Key: k, str: v} }

// Int64 builds an integer-valued field.
func Int64(k string, v int64) Field { return Field{Key: k, num: v, kind: 1} }

// Logger writes leveled structured lines, one JSON object per call, to a
// single writer. Lines are encoded into pooled buffers and written under
// one mutex, so concurrent goroutines never interleave bytes. A nil
// *Logger is a valid no-op logger, which lets call sites skip nil checks.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
	pool  sync.Pool
	// now is the timestamp source; tests pin it for deterministic lines.
	now func() time.Time
}

// NewLogger builds a logger. w must tolerate concurrent Write calls being
// serialized by the logger's mutex (os.File and bytes.Buffer both do).
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{
		w:     w,
		level: level,
		pool:  sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }},
		now:   time.Now,
	}
}

// Enabled reports whether lines at lv would be written.
func (l *Logger) Enabled(lv Level) bool { return l != nil && lv >= l.level && l.level != LevelOff }

// Info and Warn emit one structured line at their level.
func (l *Logger) Info(msg string, fields ...Field) { l.emit(LevelInfo, msg, fields) }
func (l *Logger) Warn(msg string, fields ...Field) { l.emit(LevelWarn, msg, fields) }

func (l *Logger) emit(lv Level, msg string, fields []Field) {
	if !l.Enabled(lv) {
		return
	}
	l.line(l.now(), lv, msg, fields)
}

// line is the one line encoder: it writes ts (in UTC), level, msg and then
// the fields in order as one JSON object, quoting every string with
// jsonx.AppendString, into a pooled buffer, and writes that buffer whole.
//
// alloc-budget: 0
func (l *Logger) line(ts time.Time, lv Level, msg string, fields []Field) {
	bp := l.pool.Get().(*[]byte)
	buf := append((*bp)[:0], `{"ts":"`...)
	buf = ts.UTC().AppendFormat(buf, time.RFC3339Nano)
	buf = append(buf, `","level":"`...)
	buf = append(buf, lv.String()...)
	buf = append(buf, `","msg":`...)
	buf = jsonx.AppendString(buf, msg)
	for _, f := range fields {
		buf = append(buf, ',')
		buf = jsonx.AppendString(buf, f.Key)
		buf = append(buf, ':')
		if f.kind == 0 {
			buf = jsonx.AppendString(buf, f.str)
		} else {
			buf = strconv.AppendInt(buf, f.num, 10)
		}
	}
	buf = append(buf, "}\n"...)
	l.mu.Lock()
	// A failed log write has nowhere to be reported; the next line retries.
	_, _ = l.w.Write(buf)
	l.mu.Unlock()
	*bp = buf[:0]
	l.pool.Put(bp)
}
