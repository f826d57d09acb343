package obs

import (
	"path"
	"testing"
)

// FuzzTraceContext checks the X-Trace-Context decoder: an accepted value
// names a parent inside the span array and an ID that ValidTraceID accepts
// and that is one clean path segment, so GET /v1/traces/{id} reaches it;
// and every accepted pair survives FormatTraceContext and a second parse.
// The committed corpus (testdata/fuzz/FuzzTraceContext) holds the "." and
// ".." IDs, which path cleaning redirects away from the trace.
func FuzzTraceContext(f *testing.F) {
	f.Add("gw-7:0")
	f.Add("abc.DEF_1-2:31")
	f.Fuzz(func(t *testing.T, s string) {
		id, parent, ok := ParseTraceContext(s)
		if !ok {
			return
		}
		if parent < 0 || parent >= MaxSpans {
			t.Fatalf("%q: parent %d outside [0, %d)", s, parent, MaxSpans)
		}
		if !ValidTraceID(id) {
			t.Fatalf("%q: accepted ID %q that ValidTraceID rejects", s, id)
		}
		if path.Clean("/"+id) != "/"+id {
			t.Fatalf("%q: ID %q is not one clean path segment", s, id)
		}
		id2, parent2, ok2 := ParseTraceContext(FormatTraceContext(id, parent))
		if !ok2 || id2 != id || parent2 != parent {
			t.Fatalf("%q: round trip of (%q, %d) = (%q, %d, %v)", s, id, parent, id2, parent2, ok2)
		}
	})
}
