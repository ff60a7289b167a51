package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// Source is a rewindable streaming cursor over a request sequence — the
// constant-memory counterpart of a materialized *Trace. Consumers pull
// requests one at a time with Next and may rewind with Reset; a
// generator-backed source re-derives the stream from its seed, a
// file-backed source re-seeks, so neither ever holds the whole trace in
// memory.
//
// Contract:
//   - Next returns the next request in arrival order and true, or a zero
//     Request and false at end of stream (or on error — check Err).
//   - Reset restores the source to its initial position and clears any
//     prior error. A fresh source starts at position zero, and Reset is
//     idempotent there. Full-sweep consumers (Materialize, ScanWindows,
//     Simulator.RunSource, ...) call Reset before iterating.
//   - Err reports the first error since construction or the last Reset;
//     it is nil after a clean end of stream.
//   - Determinism: two sweeps separated by Reset yield bit-for-bit
//     identical request sequences. This is what lets the simulator's
//     warm-up and measured passes consume two Reset-separated sweeps and
//     still match the materialized path exactly.
//
// A Source is a stateful cursor and must not be shared across
// goroutines; hand each worker its own source via a SourceFactory.
type Source interface {
	// Name identifies the trace (cluster bookkeeping, report labels).
	Name() string
	// Next returns the next request, or false at end of stream/error.
	Next() (Request, bool)
	// Reset rewinds to the beginning of the stream.
	Reset()
	// Err reports the first error since construction or the last Reset.
	Err() error
}

// SourceFactory produces independent cursors over the same request
// sequence. Parallel validation workers each call the factory once, so
// no cursor state is ever shared and no worker holds a duplicate
// materialized trace.
type SourceFactory func() Source

// sliceSource is a cursor over a materialized trace; it shares the
// request slice (zero copy).
type sliceSource struct {
	name string
	reqs []Request
	pos  int
}

// Source returns a streaming cursor over the trace. The cursor shares
// the underlying request slice; the trace must not be mutated while the
// cursor is live.
func (t *Trace) Source() Source {
	return &sliceSource{name: t.Name, reqs: t.Requests}
}

// Factory returns a SourceFactory of independent cursors over the trace.
func (t *Trace) Factory() SourceFactory {
	return func() Source { return t.Source() }
}

// Shared returns the trace a cursor from (*Trace).Source replays, with
// the request slice shared rather than copied, and false for any other
// source.
func Shared(s Source) (*Trace, bool) {
	ss, ok := s.(*sliceSource)
	if !ok {
		return nil, false
	}
	return &Trace{Name: ss.name, Requests: ss.reqs}, true
}

func (s *sliceSource) Name() string { return s.name }
func (s *sliceSource) Err() error   { return nil }
func (s *sliceSource) Reset()       { s.pos = 0 }
func (s *sliceSource) Next() (Request, bool) {
	if s.pos >= len(s.reqs) {
		return Request{}, false
	}
	r := s.reqs[s.pos]
	s.pos++
	return r, true
}

// Materialize rewinds the source and drains it into a Trace — the
// escape hatch for consumers that genuinely need random access (PCA
// training data assembly, the 70/30 Split, legacy call sites).
func Materialize(s Source) (*Trace, error) {
	s.Reset()
	tr := &Trace{Name: s.Name()}
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		tr.Requests = append(tr.Requests, r)
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// compressStream divides arrivals by a factor — the stream adapter form
// of (*Trace).Compress.
type compressStream struct {
	src    Source
	factor float64
}

// CompressStream adapts a source so every arrival time is divided by
// factor, with the same semantics as (*Trace).Compress: factors <= 0
// fall back to 1.
func CompressStream(src Source, factor float64) Source {
	if factor <= 0 {
		factor = 1
	}
	return &compressStream{src: src, factor: factor}
}

func (c *compressStream) Name() string { return c.src.Name() }
func (c *compressStream) Err() error   { return c.src.Err() }
func (c *compressStream) Reset()       { c.src.Reset() }
func (c *compressStream) Next() (Request, bool) {
	r, ok := c.src.Next()
	if !ok {
		return Request{}, false
	}
	r.Arrival = time.Duration(float64(r.Arrival) / c.factor)
	return r, true
}

// maxTraceNanos bounds the magnitude of a parsed timestamp, in
// nanoseconds, well inside time.Duration.
const maxTraceNanos = 1 << 62

// maxBlktraceLine is the longest line the blktrace readers accept.
const maxBlktraceLine = 1 << 20

// blktraceBufSize is the scan buffer a blktrace reader starts with; the
// scanner grows it, up to maxBlktraceLine, only for a longer line.
const blktraceBufSize = 64 << 10

// parseBlktraceLine parses one line of the blktrace format (its grammar
// is in ParseBlktrace's comment) in place, without building strings;
// skip is true for blank lines and '#' comments.
func parseBlktraceLine(lineNo int, line []byte) (req Request, skip bool, err error) {
	var f [5][]byte
	n := splitFields(line, &f)
	if n == 0 || f[0][0] == '#' {
		return Request{}, true, nil
	}
	if n != 4 && n != 5 {
		return Request{}, false, fmt.Errorf("trace: line %d: want 4 or 5 fields, got %d", lineNo, n)
	}
	arrival, err := parseNanos(f[0])
	if errors.Is(err, strconv.ErrRange) {
		return Request{}, false, fmt.Errorf("trace: line %d: timestamp %q out of range", lineNo, f[0])
	}
	if err != nil {
		return Request{}, false, fmt.Errorf("trace: line %d: bad timestamp %q: %w", lineNo, f[0], err)
	}
	lba, err := parseUint(f[1], 64)
	if err != nil {
		return Request{}, false, fmt.Errorf("trace: line %d: bad lba %q: %w", lineNo, f[1], err)
	}
	sectors, err := parseUint(f[2], 32)
	if err != nil {
		return Request{}, false, fmt.Errorf("trace: line %d: bad length %q: %w", lineNo, f[2], err)
	}
	op, ok := parseOp(f[3])
	if !ok {
		return Request{}, false, fmt.Errorf("trace: line %d: bad op %q", lineNo, f[3])
	}
	var stream uint64
	if n == 5 {
		if stream, err = parseUint(f[4], 32); err != nil {
			return Request{}, false, fmt.Errorf("trace: line %d: bad stream %q: %w", lineNo, f[4], err)
		}
	}
	return Request{
		Arrival: arrival,
		LBA:     lba,
		Sectors: uint32(sectors),
		Op:      op,
		Stream:  uint32(stream),
	}, false, nil
}

// isSpace marks the ASCII whitespace that separates fields.
var isSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits line on runs of ASCII whitespace, stores the first
// len(f) fields in f and returns how many there are.
func splitFields(line []byte, f *[5][]byte) (n int) {
	for i := 0; ; n++ {
		for i < len(line) && isSpace[line[i]] {
			i++
		}
		start := i
		for i < len(line) && !isSpace[line[i]] {
			i++
		}
		if start == i {
			return n
		}
		if n < len(f) {
			f[n] = line[start:i]
		}
	}
}

// parseNanos decodes a timestamp in seconds (an optional sign, then
// digits with at most one '.') to whole nanoseconds, rounded half away
// from zero: the 10th fraction digit decides and later ones are ignored.
// The error is strconv.ErrSyntax for any other form and strconv.ErrRange
// for a value beyond ±maxTraceNanos.
func parseNanos(b []byte) (time.Duration, error) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (neg || b[0] == '+') {
		b = b[1:]
	}
	var ns uint64
	i := 0
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		ns = mul10(ns, uint64(b[i]-'0'))
	}
	digits, frac := i, 0
	if i < len(b) && b[i] == '.' {
		for i++; i < len(b) && b[i]-'0' <= 9; i++ {
			if frac < 9 {
				ns = mul10(ns, uint64(b[i]-'0'))
			} else if frac == 9 && b[i] >= '5' {
				ns++ // the 10th fraction digit rounds; later ones are ignored
			}
			frac++
		}
	}
	if i < len(b) || digits+frac == 0 {
		return 0, strconv.ErrSyntax
	}
	for ; frac < 9; frac++ {
		ns = mul10(ns, 0)
	}
	if ns > maxTraceNanos {
		return 0, strconv.ErrRange
	}
	if neg {
		return -time.Duration(ns), nil
	}
	return time.Duration(ns), nil
}

// mul10 returns 10ns+d, or maxTraceNanos+1 once ns is past a tenth of
// the bound, so a long timestamp saturates instead of wrapping.
func mul10(ns, d uint64) uint64 {
	if ns > maxTraceNanos/10 {
		return maxTraceNanos + 1
	}
	return ns*10 + d
}

// parseUint decodes a field of plain decimal digits that fits in bits.
func parseUint(b []byte, bits int) (uint64, error) {
	var v uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 {
			return 0, strconv.ErrSyntax
		}
		if v > (math.MaxUint64-d)/10 {
			return 0, strconv.ErrRange
		}
		v = v*10 + d
	}
	if v>>bits != 0 {
		return 0, strconv.ErrRange
	}
	return v, nil
}

// parseOp maps an op word, in any ASCII case, to its Op.
func parseOp(b []byte) (Op, bool) {
	var up [len("DISCARD")]byte
	if len(b) > len(up) {
		return 0, false
	}
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	switch string(up[:len(b)]) {
	case "R", "READ":
		return Read, true
	case "W", "WRITE":
		return Write, true
	case "D", "T", "DISCARD", "TRIM":
		return Trim, true
	}
	return 0, false
}

// blktraceReader decodes the simplified blktrace text format one request
// at a time. ParseBlktrace and the streaming source both read through it.
type blktraceReader struct {
	sc     bufio.Scanner
	lineNo int
}

// reset starts reading r from its current position, scanning lines
// into buf.
func (d *blktraceReader) reset(r io.Reader, buf []byte) {
	d.sc = *bufio.NewScanner(r)
	d.sc.Buffer(buf, maxBlktraceLine)
	d.lineNo = 0
}

// next returns the next request, skipping blank and comment lines, or
// io.EOF at the end of the input.
func (d *blktraceReader) next() (Request, error) {
	for d.sc.Scan() {
		d.lineNo++
		req, skip, err := parseBlktraceLine(d.lineNo, d.sc.Bytes())
		if err != nil {
			return Request{}, err
		}
		if !skip {
			return req, nil
		}
	}
	if err := d.sc.Err(); err != nil {
		return Request{}, fmt.Errorf("trace: scan: %w", err)
	}
	return Request{}, io.EOF
}

// ErrUnsorted is wrapped by the error a streaming blktrace source ends
// with when an arrival precedes the one before it. ParseBlktrace, which
// buffers and sorts, accepts such input.
var ErrUnsorted = errors.New("out-of-order arrival")

// blktraceSource streams the simplified blktrace text format from a
// seekable reader, validating that arrivals are sorted instead of
// buffering and sorting the whole trace. Out-of-order timestamps are an
// explicit error on this path, wrapping ErrUnsorted.
type blktraceSource struct {
	r    io.ReadSeeker
	name string
	buf  []byte // scan buffer, allocated once and reused by every sweep
	dec  blktraceReader
	last time.Duration
	seen bool
	err  error
}

// NewBlktraceSource returns a rewindable streaming reader over the
// simplified blktrace text format. Reset re-seeks the reader to the
// start, so multi-sweep consumers (warm-up + measured simulation passes)
// never materialize the trace.
func NewBlktraceSource(r io.ReadSeeker, name string) Source {
	s := &blktraceSource{r: r, name: name, buf: make([]byte, blktraceBufSize)}
	s.Reset()
	return s
}

func (s *blktraceSource) Name() string { return s.name }
func (s *blktraceSource) Err() error   { return s.err }

func (s *blktraceSource) Reset() {
	if _, err := s.r.Seek(0, io.SeekStart); err != nil {
		s.err = fmt.Errorf("trace: rewind: %w", err)
		return
	}
	s.dec.reset(s.r, s.buf)
	s.last, s.seen, s.err = 0, false, nil
}

func (s *blktraceSource) Next() (Request, bool) {
	if s.err != nil {
		return Request{}, false
	}
	req, err := s.dec.next()
	if err != nil {
		if err != io.EOF {
			s.err = err
		}
		return Request{}, false
	}
	if s.seen && req.Arrival < s.last {
		s.err = fmt.Errorf("trace: line %d: %w %v < %v (streaming reader requires sorted input; use ParseBlktrace to sort)",
			s.dec.lineNo, ErrUnsorted, req.Arrival, s.last)
		return Request{}, false
	}
	s.last, s.seen = req.Arrival, true
	return req, true
}

// WriteBlktraceSource rewinds the source and streams it out in the
// format ParseBlktrace and NewBlktraceSource accept, without ever
// materializing the trace.
func WriteBlktraceSource(w io.Writer, src Source) error {
	src.Reset()
	bw := bufio.NewWriter(w)
	if name := src.Name(); name != "" {
		if _, err := fmt.Fprintf(bw, "# workload: %s\n", name); err != nil {
			return err
		}
	}
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		if err := writeBlktraceLine(bw, r); err != nil {
			return err
		}
	}
	if err := src.Err(); err != nil {
		return err
	}
	return bw.Flush()
}
