package obs

import (
	"context"
	"math/rand/v2"
)

// TraceHeader is the end-to-end request correlation header. The edge
// process (router or server) generates an id when the client did not
// supply one, echoes it on the response, stamps it into error
// envelopes, and propagates it on every internal hop — cover fetches
// from shard members, relayed updates, follower tail rounds — so one
// request's appearances across process logs correlate.
const TraceHeader = "X-Netclus-Trace-Id"

type traceKey struct{}

// WithTrace returns ctx carrying the trace id.
func WithTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceID returns the trace id carried by ctx ("" when absent).
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

const hexDigits = "0123456789abcdef"

// NewTraceID returns a fresh 32-hex-character trace id (128 random
// bits). The generator is the runtime-seeded math/rand/v2: trace ids
// need collision resistance across concurrent requests, not
// cryptographic unpredictability.
func NewTraceID() string {
	var b [32]byte
	hi, lo := rand.Uint64(), rand.Uint64()
	for i := 0; i < 16; i++ {
		b[i] = hexDigits[(hi>>(60-4*i))&0xf]
		b[16+i] = hexDigits[(lo>>(60-4*i))&0xf]
	}
	return string(b[:])
}

// ValidTraceID reports whether a client-supplied trace id is acceptable
// to propagate: 1..128 characters drawn from [A-Za-z0-9._-]. Anything
// else is replaced with a fresh id rather than echoed into logs and
// headers verbatim.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}
