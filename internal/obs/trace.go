package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"
)

// ID is a 128-bit trace identifier shared by every span of one request.
type ID struct {
	Hi, Lo uint64
}

// NewID returns a random non-zero trace ID. Collisions across the
// lifetime of a ring buffer are what matter here, not global
// uniqueness, so a PRNG is plenty.
func NewID() ID {
	for {
		id := ID{Hi: rand.Uint64(), Lo: rand.Uint64()}
		if !id.IsZero() {
			return id
		}
	}
}

// IsZero reports whether id is the absent trace.
func (id ID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the ID as 32 lowercase hex digits.
func (id ID) String() string { return fmt.Sprintf("%016x%016x", id.Hi, id.Lo) }

// ParseID parses the 32-hex-digit form produced by String.
func ParseID(s string) (ID, error) {
	if len(s) != 32 {
		return ID{}, fmt.Errorf("trace: malformed trace id %q (want 32 hex digits)", s)
	}
	hi, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return ID{}, fmt.Errorf("trace: malformed trace id %q: %v", s, err)
	}
	lo, err := strconv.ParseUint(s[16:], 16, 64)
	if err != nil {
		return ID{}, fmt.Errorf("trace: malformed trace id %q: %v", s, err)
	}
	return ID{Hi: hi, Lo: lo}, nil
}

// MarshalJSON encodes the ID as its hex string: 64-bit halves do not
// survive JSON numbers (float64 mantissa), and the string form is what
// operators paste into bsfsctl anyway.
func (id ID) MarshalJSON() ([]byte, error) { return json.Marshal(id.String()) }

// UnmarshalJSON decodes the hex string form.
func (id *ID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseID(s)
	if err != nil {
		return err
	}
	*id = v
	return nil
}

// SpanID is a 64-bit span identifier, unique within one trace. It
// marshals as hex for the same mantissa reason as ID.
type SpanID uint64

// String renders the span ID as 16 lowercase hex digits.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// MarshalJSON encodes the span ID as its hex string.
func (s SpanID) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes the hex string form.
func (s *SpanID) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	v, err := strconv.ParseUint(str, 16, 64)
	if err != nil {
		return fmt.Errorf("trace: malformed span id %q: %v", str, err)
	}
	*s = SpanID(v)
	return nil
}

func newSpanID() SpanID {
	for {
		if id := SpanID(rand.Uint64()); id != 0 {
			return id
		}
	}
}

// Context is the trace state carried across process boundaries: which
// trace the request belongs to and which span is the current parent.
// Span 0 means "at the root, no span started yet" — the first span
// opened under such a context becomes a root of the stitched tree.
type Context struct {
	Trace ID
	Span  SpanID
}

type ctxKey struct{}

// NewContext returns a copy of ctx carrying tc.
func NewContext(ctx context.Context, tc Context) context.Context {
	return context.WithValue(ctx, ctxKey{}, tc)
}

// FromContext extracts the trace context, if any.
func FromContext(ctx context.Context) (Context, bool) {
	tc, ok := ctx.Value(ctxKey{}).(Context)
	return tc, ok
}

// WithRoot force-samples: it returns ctx tagged with a fresh trace at
// its root, plus the trace ID for later lookup. Every RPC issued under
// the returned context is traced end to end — client-side spans (when
// the client has a tracer), every service hop's server span —
// regardless of any tracer's sampling rate. This is the hook tests and
// the blaster use to tag individual operations, and how `bsfsctl
// trace` gets an ID to stitch.
func WithRoot(ctx context.Context) (context.Context, ID) {
	id := NewID()
	return NewContext(ctx, Context{Trace: id}), id
}

// Span is one recorded unit of work: an RPC handled by a service, or a
// client-side operation that fans out into RPCs. Parent 0 marks a root.
type Span struct {
	Trace    ID            `json:"trace"`
	ID       SpanID        `json:"id"`
	Parent   SpanID        `json:"parent,omitempty"`
	Service  string        `json:"service"`
	Op       string        `json:"op"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Code     uint16        `json:"code,omitempty"`
	Err      string        `json:"err,omitempty"`
}
