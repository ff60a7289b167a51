package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
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

// parseBlktraceLine parses one line of the simplified blktrace format.
// skip is true for blank lines and '#' comments.
func parseBlktraceLine(lineNo int, line string) (req Request, skip bool, err error) {
	if line == "" || line[0] == '#' {
		return Request{}, true, nil
	}
	fields := strings.Fields(line)
	if len(fields) != 4 && len(fields) != 5 {
		return Request{}, false, fmt.Errorf("trace: line %d: want 4 or 5 fields, got %d", lineNo, len(fields))
	}
	ts, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Request{}, false, fmt.Errorf("trace: line %d: bad timestamp %q: %w", lineNo, fields[0], err)
	}
	if math.IsNaN(ts) || ts > maxTraceSeconds || ts < -maxTraceSeconds {
		return Request{}, false, fmt.Errorf("trace: line %d: timestamp %q out of range", lineNo, fields[0])
	}
	lba, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return Request{}, false, fmt.Errorf("trace: line %d: bad lba %q: %w", lineNo, fields[1], err)
	}
	sectors, err := strconv.ParseUint(fields[2], 10, 32)
	if err != nil {
		return Request{}, false, fmt.Errorf("trace: line %d: bad length %q: %w", lineNo, fields[2], err)
	}
	var op Op
	switch strings.ToUpper(fields[3]) {
	case "R", "READ":
		op = Read
	case "W", "WRITE":
		op = Write
	case "D", "T", "DISCARD", "TRIM":
		op = Trim
	default:
		return Request{}, false, fmt.Errorf("trace: line %d: bad op %q", lineNo, fields[3])
	}
	var stream uint64
	if len(fields) == 5 {
		stream, err = strconv.ParseUint(fields[4], 10, 32)
		if err != nil {
			return Request{}, false, fmt.Errorf("trace: line %d: bad stream %q: %w", lineNo, fields[4], err)
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

// blktraceSource streams the simplified blktrace text format from a
// seekable reader, validating that arrivals are sorted instead of
// buffering and sorting the whole trace. Out-of-order timestamps are an
// explicit error on this path (use ParseBlktrace to accept and sort
// unsorted input).
type blktraceSource struct {
	r      io.ReadSeeker
	name   string
	sc     *bufio.Scanner
	lineNo int
	last   time.Duration
	seen   bool
	err    error
}

// NewBlktraceSource returns a rewindable streaming reader over the
// simplified blktrace text format. Reset re-seeks the reader to the
// start, so multi-sweep consumers (warm-up + measured simulation passes)
// never materialize the trace.
func NewBlktraceSource(r io.ReadSeeker, name string) Source {
	s := &blktraceSource{r: r, name: name}
	s.Reset()
	return s
}

func (s *blktraceSource) Name() string { return s.name }
func (s *blktraceSource) Err() error   { return s.err }

func (s *blktraceSource) Reset() {
	if _, err := s.r.Seek(0, io.SeekStart); err != nil {
		s.err = fmt.Errorf("trace: rewind: %w", err)
		s.sc = nil
		return
	}
	sc := bufio.NewScanner(s.r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	s.sc, s.lineNo, s.last, s.seen, s.err = sc, 0, 0, false, nil
}

func (s *blktraceSource) Next() (Request, bool) {
	if s.err != nil || s.sc == nil {
		return Request{}, false
	}
	for s.sc.Scan() {
		s.lineNo++
		req, skip, err := parseBlktraceLine(s.lineNo, strings.TrimSpace(s.sc.Text()))
		if err != nil {
			s.err = err
			return Request{}, false
		}
		if skip {
			continue
		}
		if s.seen && req.Arrival < s.last {
			s.err = fmt.Errorf("trace: line %d: out-of-order arrival %v < %v (streaming reader requires sorted input; use ParseBlktrace to sort)",
				s.lineNo, req.Arrival, s.last)
			return Request{}, false
		}
		s.last, s.seen = req.Arrival, true
		return req, true
	}
	if err := s.sc.Err(); err != nil {
		s.err = fmt.Errorf("trace: scan: %w", err)
	}
	return Request{}, false
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
