// Package trace models block-level I/O traces: the request format, a
// blktrace-style text parser/writer, the window partitioning and
// normalization of AutoBlox's workload characterization (§3.1), and the
// per-window feature extraction that feeds PCA + k-means.
package trace

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"time"
)

// Op is the I/O operation type.
type Op uint8

const (
	// Read is a block read request.
	Read Op = iota
	// Write is a block write request.
	Write
	// Trim is a discard: the host declares the addressed sectors dead.
	// No data moves; the device may invalidate its mapping and reclaim
	// the backing flash. Blktrace spells these as `D` records.
	Trim
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "R"
	case Trim:
		return "D"
	default:
		return "W"
	}
}

// Request is one block I/O request.
type Request struct {
	// Arrival is the request submission time relative to trace start.
	Arrival time.Duration
	// LBA is the starting logical block address, in 512-byte sectors.
	LBA uint64
	// Sectors is the request length in 512-byte sectors.
	Sectors uint32
	// Op is Read, Write, or Trim.
	Op Op
	// Stream is the multi-stream directive tag (0 = untagged). Devices
	// with a multi-stream host interface route writes with different
	// stream tags to disjoint flash blocks; all other interfaces ignore
	// it.
	Stream uint32
}

// Bytes returns the request size in bytes.
func (r Request) Bytes() uint64 { return uint64(r.Sectors) * 512 }

// Trace is an ordered sequence of requests with a name used for
// clustering bookkeeping.
type Trace struct {
	Name     string
	Requests []Request
}

// Slice returns a sub-trace of requests [lo, hi).
func (t *Trace) Slice(lo, hi int) *Trace {
	return &Trace{Name: t.Name, Requests: t.Requests[lo:hi]}
}

// Compress returns a copy of the trace with all arrival times divided by
// factor. Compressing arrivals turns a timestamped replay into a
// device-capability stress test: once the offered rate far exceeds the
// device, measured throughput reflects what the hardware can sustain
// rather than what the host offered (used by what-if throughput goals).
func (t *Trace) Compress(factor float64) *Trace {
	if factor <= 0 {
		factor = 1
	}
	out := &Trace{Name: t.Name, Requests: make([]Request, len(t.Requests))}
	for i, r := range t.Requests {
		r.Arrival = time.Duration(float64(r.Arrival) / factor)
		out.Requests[i] = r
	}
	return out
}

// Split partitions the trace into a training prefix holding frac of the
// requests and a validation suffix with the remainder — the 70/30 split
// the paper uses for clustering validation.
func (t *Trace) Split(frac float64) (train, valid *Trace) {
	cut := int(float64(len(t.Requests)) * frac)
	if cut < 0 {
		cut = 0
	}
	if cut > len(t.Requests) {
		cut = len(t.Requests)
	}
	return t.Slice(0, cut), t.Slice(cut, len(t.Requests))
}

// ParseBlktrace reads a simplified blktrace-style text format, one
// request per line:
//
//	<timestamp-seconds> <lba-sectors> <sectors> <op> [stream]
//
// The grammar is strict ASCII:
//   - Fields are split on runs of ASCII whitespace (space, \t, \v, \f,
//     \r). A blank line is skipped, and so is a line whose first
//     non-space byte is '#', whatever bytes follow. A record has 4 or 5
//     fields.
//   - The timestamp is an optional '+' or '-', then digits with at most
//     one '.' and at least one digit, so "5.", ".5" and "-0" are valid.
//     Its value is the exact decimal rounded half away from zero at the
//     nanosecond: the 10th fraction digit decides and later digits are
//     ignored. A value beyond ±2^62 ns is out of range.
//   - The LBA is plain decimal digits that fit in a uint64. The length
//     and the optional fifth field, a multi-stream tag, are plain
//     decimal digits that fit in a uint32. Leading zeros are allowed and
//     signs are not.
//   - The op is R, READ, W, WRITE, D, T, DISCARD or TRIM, in any ASCII
//     case.
//
// Anything else in a record line, exponents, "inf" and any byte past
// ASCII included, is an error naming the line and the field. Requests
// are buffered and sorted by arrival, so unsorted input is accepted; for
// a constant-memory reader over already-sorted files use
// NewBlktraceSource.
func ParseBlktrace(r io.Reader) (*Trace, error) {
	var d blktraceReader
	d.reset(r, make([]byte, blktraceBufSize))
	tr := &Trace{}
	for {
		req, err := d.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		tr.Requests = append(tr.Requests, req)
	}
	sort.SliceStable(tr.Requests, func(i, j int) bool {
		return tr.Requests[i].Arrival < tr.Requests[j].Arrival
	})
	return tr, nil
}

// WriteBlktrace emits the trace in the format ParseBlktrace accepts.
func WriteBlktrace(w io.Writer, t *Trace) error {
	return WriteBlktraceSource(w, t.Source())
}

// writeBlktraceLine emits one request in the format parseBlktraceLine
// accepts, formatted in place in w's free buffer. The stream tag is
// appended only when nonzero, so untagged traces round-trip
// byte-identically with the pre-multi-stream format.
func writeBlktraceLine(w *bufio.Writer, r Request) error {
	b := strconv.AppendFloat(w.AvailableBuffer(), r.Arrival.Seconds(), 'f', 6, 64)
	b = append(b, ' ')
	b = strconv.AppendUint(b, r.LBA, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(r.Sectors), 10)
	b = append(b, ' ')
	b = append(b, r.Op.String()...)
	if r.Stream != 0 {
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(r.Stream), 10)
	}
	b = append(b, '\n')
	_, err := w.Write(b)
	return err
}
