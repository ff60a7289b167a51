package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ParseMSR reads the MSR-Cambridge CSV trace format, the most common
// public block-trace corpus (and one of the families behind the paper's
// enterprise workloads):
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamp is in Windows filetime (100ns ticks); Type is "Read" or
// "Write"; Offset and Size are in bytes. Lines that do not parse are
// rejected with their line number. The returned trace is sorted by
// arrival and rebased so the first request arrives at t=0.
func ParseMSR(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	tr := &Trace{}
	lineNo := 0
	var base int64 = -1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 6 {
			return nil, fmt.Errorf("trace: msr line %d: want >=6 fields, got %d", lineNo, len(fields))
		}
		ts, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d: bad timestamp %q: %w", lineNo, fields[0], err)
		}
		var op Op
		switch strings.ToLower(strings.TrimSpace(fields[3])) {
		case "read", "r":
			op = Read
		case "write", "w":
			op = Write
		default:
			return nil, fmt.Errorf("trace: msr line %d: bad type %q", lineNo, fields[3])
		}
		offset, err := strconv.ParseUint(strings.TrimSpace(fields[4]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d: bad offset %q: %w", lineNo, fields[4], err)
		}
		size, err := strconv.ParseUint(strings.TrimSpace(fields[5]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d: bad size %q: %w", lineNo, fields[5], err)
		}
		if size == 0 {
			continue // zero-length requests appear in some captures
		}
		if base < 0 {
			base = ts
		}
		// Windows filetime ticks are 100ns.
		arrival := time.Duration(ts-base) * 100 * time.Nanosecond
		// Count every sector the byte span [offset, offset+size) touches:
		// an unaligned request can straddle one more sector than size/512
		// rounded up.
		end := offset + size
		sectors := (end+511)/512 - offset/512
		if end < offset || end > math.MaxUint64-511 || sectors > 1<<31 {
			return nil, fmt.Errorf("trace: msr line %d: size %d too large", lineNo, size)
		}
		tr.Requests = append(tr.Requests, Request{
			Arrival: arrival,
			LBA:     offset / 512,
			Sectors: uint32(sectors),
			Op:      op,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: msr scan: %w", err)
	}
	sort.SliceStable(tr.Requests, func(i, j int) bool {
		return tr.Requests[i].Arrival < tr.Requests[j].Arrival
	})
	// Rebase after sorting in case the capture was out of order.
	if len(tr.Requests) > 0 {
		base := tr.Requests[0].Arrival
		for i := range tr.Requests {
			tr.Requests[i].Arrival -= base
		}
	}
	return tr, nil
}

// Stats summarizes a trace for quick inspection (tracegen -stats and the
// docs).
type Stats struct {
	Requests     int
	Duration     time.Duration
	ReadFraction float64
	TotalBytes   uint64
	MeanBytes    float64
	OfferedBps   float64
	SpanBytes    uint64
	Sequential   float64 // fraction of strictly sequential successors
}

// ComputeStats derives summary statistics from a trace.
func ComputeStats(t *Trace) Stats {
	s := Stats{Requests: len(t.Requests)}
	if s.Requests == 0 {
		return s
	}
	s.Duration = t.Requests[s.Requests-1].Arrival
	minLBA, maxEnd := t.Requests[0].LBA, uint64(0)
	seq, reads := 0, 0
	var prevEnd uint64
	for i, r := range t.Requests {
		if r.Op == Read {
			reads++
		}
		s.TotalBytes += r.Bytes()
		if r.LBA < minLBA {
			minLBA = r.LBA
		}
		if end := r.LBA + uint64(r.Sectors); end > maxEnd {
			maxEnd = end
		}
		if i > 0 && r.LBA == prevEnd {
			seq++
		}
		prevEnd = r.LBA + uint64(r.Sectors)
	}
	s.ReadFraction = float64(reads) / float64(s.Requests)
	s.MeanBytes = float64(s.TotalBytes) / float64(s.Requests)
	if secs := s.Duration.Seconds(); secs > 0 {
		s.OfferedBps = float64(s.TotalBytes) / secs
	}
	s.SpanBytes = (maxEnd - minLBA) * 512
	if s.Requests > 1 {
		s.Sequential = float64(seq) / float64(s.Requests-1)
	}
	return s
}

// ComputeStatsSource rewinds the source and derives the same summary
// statistics as ComputeStats in one streaming pass.
func ComputeStatsSource(src Source) (Stats, error) {
	src.Reset()
	var (
		s        Stats
		reads    int
		minLBA   uint64
		maxEnd   uint64
		seq      int
		prevEnd  uint64
		lastSeen time.Duration
	)
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		if s.Requests == 0 {
			minLBA = r.LBA
		} else if r.LBA == prevEnd {
			seq++
		}
		if r.LBA < minLBA {
			minLBA = r.LBA
		}
		if end := r.LBA + uint64(r.Sectors); end > maxEnd {
			maxEnd = end
		}
		prevEnd = r.LBA + uint64(r.Sectors)
		lastSeen = r.Arrival
		if r.Op == Read {
			reads++
		}
		s.TotalBytes += r.Bytes()
		s.Requests++
	}
	if err := src.Err(); err != nil {
		return Stats{}, err
	}
	if s.Requests == 0 {
		return s, nil
	}
	s.Duration = lastSeen
	s.ReadFraction = float64(reads) / float64(s.Requests)
	s.MeanBytes = float64(s.TotalBytes) / float64(s.Requests)
	if secs := s.Duration.Seconds(); secs > 0 {
		s.OfferedBps = float64(s.TotalBytes) / secs
	}
	s.SpanBytes = (maxEnd - minLBA) * 512
	if s.Requests > 1 {
		s.Sequential = float64(seq) / float64(s.Requests-1)
	}
	return s, nil
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("%d reqs over %v: %.1f%% read, %.1f KB mean, %.1f MB/s offered, span %.1f GB, %.1f%% sequential",
		s.Requests, s.Duration.Round(time.Millisecond), s.ReadFraction*100,
		s.MeanBytes/1024, s.OfferedBps/1e6, float64(s.SpanBytes)/1e9, s.Sequential*100)
}
