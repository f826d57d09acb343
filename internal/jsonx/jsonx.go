// Package jsonx holds the zero-allocation JSON append encoders shared by
// the serving hot paths: the /v1/predict response encoder in internal/serve,
// the bulk-query row encoder in internal/query, and the structured log line
// encoder in internal/obs, which quotes every string it writes through
// AppendString. They render byte-for-byte what encoding/json.Marshal would
// produce for the same values, without reflection or intermediate buffers,
// so a pooled []byte can carry a whole response or log line.
// TestAppendStringMatchesStdlib and TestAppendFloatMatchesStdlib pin the
// compatibility.
package jsonx

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// safe marks the ASCII bytes encoding/json emits verbatim inside a string:
// printable, and none of '"', '\\', '<', '>', '&' (the HTML escapes
// Marshal applies by default).
var safe = func() (s [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		s[c] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&'} {
		s[c] = false
	}
	return s
}()

// AppendString appends s as a JSON string literal, escaping exactly as
// encoding/json.Marshal does (HTML escaping included).
//
// alloc-budget: 0
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if safe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// Control characters, plus the HTML-sensitive trio.
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			// Invalid UTF-8 byte: Marshal writes the replacement character
			// as an escape, not as raw bytes.
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f exactly as encoding/json renders a float64:
// shortest round-trip form, 'f' format inside [1e-6, 1e21), 'e' outside,
// with the exponent's leading zero trimmed. NaN and infinities — which
// Marshal refuses outright — must never reach the encoder; every caller
// feeds it Eq.-5 scores normalized into [0, 1].
//
// alloc-budget: 0
func AppendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
