package obs

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer emits spans as Chrome trace_event objects, one JSON object per
// line (JSONL). The output loads directly in Perfetto
// (https://ui.perfetto.dev) and, wrapped in `[...]`, in chrome://tracing.
// Every span becomes a complete ("ph":"X") event with microsecond
// timestamps relative to the tracer's start.
//
// A nil *Tracer (and the nil *Span it hands out) is the disabled state:
// StartSpan and every Span method are zero-allocation no-ops.
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	buf   []byte
	start time.Time
	now   func() time.Time // injectable clock (tests)
	err   error
}

// NewTracer wraps a writer. The caller owns the writer's lifecycle
// (buffering, flushing, closing).
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: w, now: time.Now}
	t.start = t.now()
	return t
}

// ID returns a stable 16-hex-digit identifier for this tracer, derived
// from its start time. Coordinators stamp leases with it so worker-side
// trace events can be correlated back to the originating tune ("" on a
// nil tracer).
func (t *Tracer) ID() string {
	if t == nil {
		return ""
	}
	return strconv.FormatUint(uint64(t.start.UnixNano()), 16)
}

// Complete emits a complete ("ph":"X") event with an explicitly supplied
// start time and duration, rather than measuring them live. This is how
// the coordinator replays remote worker spans into its own timeline
// after clock-offset correction: start is expressed in the tracer's own
// clock domain (events before the tracer started clamp to ts=0). Args
// are alternating key/value pairs.
func (t *Tracer) Complete(name string, lane int64, start time.Time, dur time.Duration, args ...string) {
	if t == nil {
		return
	}
	var as []spanArg
	for i := 0; i+1 < len(args); i += 2 {
		as = append(as, spanArg{args[i], args[i+1]})
	}
	ts := start.Sub(t.start)
	if ts < 0 {
		ts = 0
	}
	if dur < 0 {
		dur = 0
	}
	t.emit(name, lane, ts, dur, as)
}

// Err reports the first write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Span is one in-progress traced operation. Create with StartSpan, add
// annotations with Arg/ArgInt/Lane, finish with End. All
// methods are no-ops on a nil span.
type Span struct {
	t     *Tracer
	name  string
	tid   int64
	begin time.Duration
	args  []spanArg
}

type spanArg struct{ key, val string }

// StartSpan opens a span at the current time (nil on a nil tracer).
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, tid: 1, begin: t.now().Sub(t.start)}
}

// Arg attaches a string annotation; returns the span for chaining.
func (s *Span) Arg(key, value string) *Span {
	if s != nil {
		s.args = append(s.args, spanArg{key, value})
	}
	return s
}

// ArgInt attaches an integer annotation.
func (s *Span) ArgInt(key string, v int64) *Span {
	if s != nil {
		s.args = append(s.args, spanArg{key, strconv.FormatInt(v, 10)})
	}
	return s
}

// Lane assigns the span to a trace lane ("tid" in the Chrome format);
// concurrent spans render stacked per lane, so workers should each use a
// distinct lane.
func (s *Span) Lane(tid int64) *Span {
	if s != nil {
		s.tid = tid
	}
	return s
}

// End closes the span and writes its event line.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	end := t.now().Sub(t.start)
	t.emit(s.name, s.tid, s.begin, end-s.begin, s.args)
}

// emit serializes one complete ("ph":"X") event. Fields are written in
// a fixed order so the output is deterministic given deterministic
// timestamps.
func (t *Tracer) emit(name string, tid int64, ts, dur time.Duration, args []spanArg) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buf[:0]
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"cat":"autoblox","ph":"X","ts":`...)
	b = appendMicros(b, ts)
	b = append(b, `,"dur":`...)
	b = appendMicros(b, dur)
	b = append(b, `,"pid":1,"tid":`...)
	b = strconv.AppendInt(b, tid, 10)
	if len(args) > 0 {
		b = append(b, `,"args":{`...)
		for i, a := range args {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, a.key)
			b = append(b, ':')
			b = strconv.AppendQuote(b, a.val)
		}
		b = append(b, '}')
	}
	b = append(b, "}\n"...)
	t.buf = b
	if t.err == nil {
		_, t.err = t.w.Write(b)
	}
}

// appendMicros renders a duration as microseconds with nanosecond
// precision (three decimals).
func appendMicros(b []byte, d time.Duration) []byte {
	us := d.Nanoseconds() / 1000
	frac := d.Nanoseconds() % 1000
	b = strconv.AppendInt(b, us, 10)
	b = append(b, '.')
	b = append(b, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return b
}

// globalTracer is the process-wide tracer used by the package-level
// StartSpan, so deeply nested pipeline stages (clusterer, pruner, tuner,
// validator) need no tracer plumbing.
var globalTracer atomic.Pointer[Tracer]

// SetTracer installs (or, with nil, removes) the global tracer.
func SetTracer(t *Tracer) { globalTracer.Store(t) }

// StartSpan opens a span on the global tracer; with no tracer installed
// it returns nil, whose methods all no-op without allocating.
func StartSpan(name string) *Span {
	return globalTracer.Load().StartSpan(name)
}

// TraceID returns the global tracer's correlation ID ("" when tracing is
// disabled).
func TraceID() string {
	return globalTracer.Load().ID()
}

// Complete emits an explicit-time complete event on the global tracer,
// if installed.
func Complete(name string, lane int64, start time.Time, dur time.Duration, args ...string) {
	globalTracer.Load().Complete(name, lane, start, dur, args...)
}
