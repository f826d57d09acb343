package obs

// maxTraceIDLen bounds accepted client-supplied trace IDs.
const maxTraceIDLen = 64

// ValidTraceID reports whether a client-supplied X-Request-Id is safe to
// echo and log verbatim and to fetch back from GET /v1/traces/{id}: 1-64
// bytes of [0-9A-Za-z._-], except "." and "..", which ServeMux path
// cleaning would redirect away from the trace. Anything else is replaced
// by a generated ID rather than sanitized, so logs never carry
// attacker-shaped strings.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > maxTraceIDLen || s == "." || s == ".." {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}
