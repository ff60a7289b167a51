package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
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

// maxTraceSeconds bounds parsed timestamps so the seconds→nanoseconds
// conversion can never overflow time.Duration (the overflow behavior of
// out-of-range float→int conversion is platform-dependent).
const maxTraceSeconds = float64(1<<62) / 1e9

// maxBlktraceLine is the longest line the blktrace readers accept.
const maxBlktraceLine = 1 << 20

// blktraceBufSize is the scan buffer a blktrace reader starts with; the
// scanner grows it, up to maxBlktraceLine, only for a longer line.
const blktraceBufSize = 64 << 10

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseBlktraceLine parses one line of the simplified blktrace format in
// place, without building strings on the common path. Fields are split
// as strings.Fields splits them (ASCII spaces, and past ASCII any rune
// unicode.IsSpace accepts); skip is true for blank lines and '#'
// comments. Every value and error equals that of strings.Fields followed
// by strconv.ParseFloat and ParseUint on each field, so any form the
// byte-level decoders below do not take goes to strconv on that field.
func parseBlktraceLine(lineNo int, line []byte) (req Request, skip bool, err error) {
	var f [5][]byte
	n := splitFields(line, &f)
	if n == 0 || f[0][0] == '#' {
		return Request{}, true, nil
	}
	if n != 4 && n != 5 {
		return Request{}, false, fmt.Errorf("trace: line %d: want 4 or 5 fields, got %d", lineNo, n)
	}
	ts, ok := parseSeconds(f[0])
	if !ok {
		if ts, err = strconv.ParseFloat(string(f[0]), 64); err != nil {
			return Request{}, false, fmt.Errorf("trace: line %d: bad timestamp %q: %w", lineNo, f[0], err)
		}
	}
	if math.IsNaN(ts) || ts > maxTraceSeconds || ts < -maxTraceSeconds {
		return Request{}, false, fmt.Errorf("trace: line %d: timestamp %q out of range", lineNo, f[0])
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
		Arrival: time.Duration(ts * float64(time.Second)),
		LBA:     lba,
		Sectors: uint32(sectors),
		Op:      op,
		Stream:  uint32(stream),
	}, false, nil
}

// byteClass sorts bytes for field splitting: 0 for a field byte, 1 for
// the ASCII spaces strings.Fields splits on, 2 for the bytes past ASCII.
var byteClass = func() (c [256]uint8) {
	for _, b := range []byte{'\t', '\n', '\v', '\f', '\r', ' '} {
		c[b] = 1
	}
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = 2
	}
	return c
}()

// splitFields splits line into fields as strings.Fields would, stores
// the first len(f) of them in f and returns how many there are.
func splitFields(line []byte, f *[5][]byte) (n int) {
	for i := 0; ; n++ {
		for i < len(line) && byteClass[line[i]] == 1 {
			i++
		}
		start := i
		for i < len(line) && byteClass[line[i]] == 0 {
			i++
		}
		if i < len(line) && byteClass[line[i]] == 2 {
			// A byte past ASCII may start a multi-byte space, which
			// bytes.Fields decodes; such lines are rare enough to
			// allocate.
			all := bytes.Fields(line)
			copy(f[:], all)
			return len(all)
		}
		if start == i {
			return n
		}
		if n < len(f) {
			f[n] = line[start:i]
		}
	}
}

// parseSeconds decodes a timestamp made of decimal digits with at most
// one '.', a mantissa m of at most 2^53 and at most 22 fraction digits
// k, as float64(m) / 1e<k>. Both operands are exact in a float64, so the
// one IEEE division rounds the decimal value correctly: the result is
// the float64 strconv.ParseFloat returns. ok is false for every other
// form (signs, exponents, nan/inf, longer mantissas), which the caller
// hands to strconv.
func parseSeconds(b []byte) (float64, bool) {
	var m uint64
	sig, frac := 0, 0
	digits, dot := false, false
	for _, c := range b {
		switch {
		case c == '.' && !dot:
			dot = true
		case c-'0' <= 9:
			digits = true
			if dot {
				frac++
			}
			if m == 0 && c == '0' {
				continue // a leading zero is not significant
			}
			if sig++; sig > 19 {
				return 0, false // a 20th significant digit could overflow m
			}
			m = m*10 + uint64(c-'0')
		default:
			return 0, false
		}
	}
	if !digits || m > 1<<53 || frac >= len(exactPow10) {
		return 0, false
	}
	return float64(m) / exactPow10[frac], true
}

// parseUint is strconv.ParseUint(string(b), 10, bits) that decodes a
// plain run of at most 19 digits fitting in bits in place; anything else
// goes to strconv for its value or its error.
func parseUint(b []byte, bits int) (uint64, error) {
	if len(b) <= 19 {
		var v uint64
		i := 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			v = v*10 + uint64(b[i]-'0')
		}
		if i == len(b) && i > 0 && v>>bits == 0 {
			return v, nil
		}
	}
	return strconv.ParseUint(string(b), 10, bits)
}

// parseOp maps an op field to its Op as a match on strings.ToUpper of the
// field would. Past ASCII it calls strings.ToUpper itself, since a few
// runes ('ı', 'ſ') upper-case to ASCII letters.
func parseOp(b []byte) (Op, bool) {
	var up [len("DISCARD")]byte
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return opNamed(strings.ToUpper(string(b)))
		}
	}
	if len(b) > len(up) {
		return 0, false
	}
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	return opNamed(string(up[:len(b)]))
}

// opNamed maps an upper-case op word to its Op.
func opNamed(word string) (Op, bool) {
	switch word {
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

// blktraceSource streams the simplified blktrace text format from a
// seekable reader, validating that arrivals are sorted instead of
// buffering and sorting the whole trace. Out-of-order timestamps are an
// explicit error on this path (use ParseBlktrace to accept and sort
// unsorted input).
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
		s.err = fmt.Errorf("trace: line %d: out-of-order arrival %v < %v (streaming reader requires sorted input; use ParseBlktrace to sort)",
			s.dec.lineNo, req.Arrival, s.last)
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
