package telemetry

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Hop kinds for spans. A sampled cross-domain request decomposes into the
// four hops the paper's latency experiments cannot separate:
//
//	edge    — portal HTTP handling at the client's local server, up to the
//	          point the request enters the substrate (or local app queue)
//	queue   — argument marshalling plus pooled-connection acquisition in
//	          the ORB (the "waiting to get on the wire" time)
//	rpc     — wire round-trip time, excluding remote servant execution
//	servant — remote dispatch time, as echoed by the peer in the reply's
//	          trace trailer
const (
	HopEdge    = "edge"
	HopQueue   = "queue"
	HopRPC     = "rpc"
	HopServant = "servant"
)

// TraceID identifies one sampled request across the federation.
type TraceID uint64

// String renders the id as fixed-width hex, the form used in
// /api/trace/{id} URLs.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceID parses the hex form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	var v uint64
	if _, err := fmt.Sscanf(s, "%x", &v); err != nil {
		return 0, fmt.Errorf("telemetry: bad trace id %q", s)
	}
	return TraceID(v), nil
}

// Span is one hop of a sampled request.
type Span struct {
	Hop         string `json:"hop"`            // edge | queue | rpc | servant
	Op          string `json:"op"`             // operation ("command set_param", ORB method, …)
	Loc         string `json:"loc"`            // where the span was recorded (server name / ORB addr)
	Peer        string `json:"peer,omitempty"` // remote address, for queue/rpc hops
	StartOffset int64  `json:"startOffsetNanos"`
	DurNanos    int64  `json:"durNanos"`
}

// TraceRecord is one finished (or remotely observed) trace in the ring.
type TraceRecord struct {
	ID         string `json:"id"`
	Op         string `json:"op"`
	Start      string `json:"start"`
	TotalNanos int64  `json:"totalNanos"`
	Spans      []Span `json:"spans"`
}

// ActiveTrace accumulates spans for one in-flight sampled request. It is
// created by Tracer.Sample and travels in the request context. All methods
// are nil-receiver safe so unsampled call sites stay branch-only.
type ActiveTrace struct {
	id     TraceID
	op     string
	begin  time.Time
	tracer *Tracer

	mu    sync.Mutex
	spans []Span
}

// ID returns the trace id (0 for a nil trace).
func (t *ActiveTrace) ID() TraceID {
	if t == nil {
		return 0
	}
	return t.id
}

// Begin returns the time the trace was minted.
func (t *ActiveTrace) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.begin
}

// AddSpan records one hop. start is the hop's wall-clock start; offsets
// are computed against the trace's mint time.
func (t *ActiveTrace) AddSpan(hop, op, loc, peer string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	sp := Span{
		Hop:         hop,
		Op:          op,
		Loc:         loc,
		Peer:        peer,
		StartOffset: start.Sub(t.begin).Nanoseconds(),
		DurNanos:    d.Nanoseconds(),
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Finish closes the trace and publishes it to the tracer's ring buffer.
// Safe to call on a nil trace; calling twice publishes twice.
func (t *ActiveTrace) Finish() {
	if t == nil {
		return
	}
	total := time.Since(t.begin)
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	t.tracer.publish(TraceRecord{
		ID:         t.id.String(),
		Op:         t.op,
		Start:      t.begin.UTC().Format(time.RFC3339Nano),
		TotalNanos: total.Nanoseconds(),
		Spans:      spans,
	})
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

const (
	traceRingSize  = 256  // finished traces kept for /api/trace
	remoteRingSize = 1024 // spans recorded on behalf of remote-minted traces
)

// Tracer mints sampled traces and retains finished ones in a ring buffer.
// It also collects "remote" spans — hops executed in this process for
// traces minted elsewhere in the federation (the servant side of an RPC) —
// which Get merges into the owning trace by id.
type Tracer struct {
	sampleEvery atomic.Int64  // 0 = sampling disabled
	counter     atomic.Uint64 // requests seen, for the 1-in-N decision
	idCounter   atomic.Uint64 // traces minted, for id generation
	idSalt      uint64

	mu      sync.Mutex
	ring    [traceRingSize]TraceRecord
	ringN   int // total published
	remote  [remoteRingSize]remoteSpan
	remoteN int
}

type remoteSpan struct {
	id   TraceID
	span Span
}

// NewTracer returns a tracer with sampling disabled.
func NewTracer() *Tracer {
	return &Tracer{idSalt: rand.Uint64() | 1}
}

// SetSampleEvery samples one request in every n. n <= 0 disables sampling.
func (t *Tracer) SetSampleEvery(n int) {
	if n < 0 {
		n = 0
	}
	t.sampleEvery.Store(int64(n))
}

// SampleEvery returns the current sampling interval (0 = disabled).
func (t *Tracer) SampleEvery() int { return int(t.sampleEvery.Load()) }

// Sample decides — with one atomic increment and before any allocation —
// whether this request is traced. It returns nil (trace nothing) or a new
// ActiveTrace for op.
func (t *Tracer) Sample(op string) *ActiveTrace {
	n := t.sampleEvery.Load()
	if n <= 0 {
		return nil
	}
	if t.counter.Add(1)%uint64(n) != 0 {
		return nil
	}
	return t.Start(op)
}

// Start unconditionally mints a trace for op. Experiments use it to trace
// a specific request regardless of the sampling interval.
func (t *Tracer) Start(op string) *ActiveTrace {
	id := TraceID(t.idSalt * (t.idCounter.Add(1) + 0x9e3779b97f4a7c15))
	if id == 0 {
		id = 1
	}
	return &ActiveTrace{id: id, op: op, begin: time.Now(), tracer: t}
}

func (t *Tracer) publish(rec TraceRecord) {
	t.mu.Lock()
	t.ring[t.ringN%traceRingSize] = rec
	t.ringN++
	t.mu.Unlock()
}

// RecordRemoteSpan records a hop executed locally on behalf of a trace
// minted elsewhere (or not yet finished locally). Get merges these into
// the trace record by id.
func (t *Tracer) RecordRemoteSpan(id TraceID, span Span) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.remote[t.remoteN%remoteRingSize] = remoteSpan{id: id, span: span}
	t.remoteN++
	t.mu.Unlock()
}

// Get returns the finished trace with the given id, with any remote spans
// recorded in this process merged in. ok is false when the trace is
// unknown or has been evicted from the ring.
func (t *Tracer) Get(id TraceID) (TraceRecord, bool) {
	want := id.String()
	t.mu.Lock()
	defer t.mu.Unlock()
	var rec TraceRecord
	found := false
	n := t.ringN
	if n > traceRingSize {
		n = traceRingSize
	}
	for i := 0; i < n; i++ {
		if t.ring[i].ID == want {
			rec = t.ring[i]
			rec.Spans = append([]Span(nil), rec.Spans...)
			found = true
			break
		}
	}
	if !found {
		return TraceRecord{}, false
	}
	rn := t.remoteN
	if rn > remoteRingSize {
		rn = remoteRingSize
	}
	for i := 0; i < rn; i++ {
		if t.remote[i].id == id {
			rec.Spans = append(rec.Spans, t.remote[i].span)
		}
	}
	return rec, true
}

// Recent returns up to max finished traces, newest first.
func (t *Tracer) Recent(max int) []TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.ringN
	if n > traceRingSize {
		n = traceRingSize
	}
	if max > 0 && n > max {
		n = max
	}
	out := make([]TraceRecord, 0, n)
	for i := 0; i < n; i++ {
		rec := t.ring[(t.ringN-1-i)%traceRingSize]
		rec.Spans = append([]Span(nil), rec.Spans...)
		out = append(out, rec)
	}
	return out
}

// Reset clears the rings and disables sampling. Tests use it to isolate
// runs against the process-default tracer.
func (t *Tracer) Reset() {
	t.sampleEvery.Store(0)
	t.mu.Lock()
	t.ring = [traceRingSize]TraceRecord{}
	t.ringN = 0
	t.remote = [remoteRingSize]remoteSpan{}
	t.remoteN = 0
	t.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Context plumbing and process defaults.
// ---------------------------------------------------------------------------

type traceCtxKey struct{}

// WithTrace attaches an active trace to a context. Attaching nil returns
// ctx unchanged.
func WithTrace(ctx context.Context, t *ActiveTrace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom extracts the active trace from a context, or nil. The nil
// result is safe to call span methods on, so call sites need no branch.
func TraceFrom(ctx context.Context) *ActiveTrace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*ActiveTrace)
	return t
}

var defaultTracer = NewTracer()

// Default returns the process-wide tracer used by the HTTP edge and the
// ORB servant side. In-process multi-domain federations (tests,
// experiments) share it; spans carry a Loc tag so hops remain
// distinguishable.
func Default() *Tracer { return defaultTracer }

// Reset restores the process-default tracer and registry to their initial
// state (sampling off, rings and histograms empty). For tests.
func Reset() {
	defaultTracer.Reset()
	defaultRegistry.Reset()
}
