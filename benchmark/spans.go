package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point. Spans of one operation share Op; Parent is the
// ID of the span that caused it (0 for an operation's root).
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends; it is safe for
// concurrent use (dist Measure spans arrive from validator goroutines).
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (r *recorder) add(op, parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		Op: op, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// begin opens a span that end closes; until then its End equals Start.
func (r *recorder) begin(op, parent int, name string) int {
	now := time.Now()
	return r.add(op, parent, name, now, now)
}

func (r *recorder) end(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = time.Since(r.epoch).Nanoseconds()
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// get returns the span with the given ID.
func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// children returns the direct children of parent, optionally only those
// with the given name ("" matches any).
func children(spans []span, parent span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Op == parent.Op && s.Parent == parent.ID && (name == "" || s.Name == name) {
			out = append(out, s)
		}
	}
	return out
}

// unionCovered returns how much of [lo, hi) the intervals cover,
// counting overlapping intervals once.
func unionCovered(lo, hi int64, ivs []span) time.Duration {
	type iv struct{ a, b int64 }
	var clipped []iv
	for _, s := range ivs {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			clipped = append(clipped, iv{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
	var total, curA, curB int64
	open := false
	for _, c := range clipped {
		if open && c.a <= curB {
			curB = max(curB, c.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = c.a, c.b, true
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// selfTime is a span's duration minus the part of it that the given
// child spans cover.
func selfTime(parent span, kids []span) time.Duration {
	return parent.dur() - unionCovered(parent.Start, parent.End, kids)
}

// spanRecord is one line of the span file: the span plus its self time
// over all of its direct children.
type spanRecord struct {
	span
	SelfNS int64 `json:"self_ns"`
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("write spans: %w", cerr)
		}
	}()
	byParent := map[[2]int][]span{}
	for _, s := range spans {
		k := [2]int{s.Op, s.Parent}
		byParent[k] = append(byParent[k], s)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		self := selfTime(s, byParent[[2]int{s.Op, s.ID}])
		if err := enc.Encode(spanRecord{span: s, SelfNS: self.Nanoseconds()}); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return w.Flush()
}
