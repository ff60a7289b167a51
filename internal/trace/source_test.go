package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// randTrace builds an arrival-sorted trace with varied sizes, ops and
// addresses for exercising the stream adapters.
func randTrace(n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Name: "rand"}
	var arrival time.Duration
	for i := 0; i < n; i++ {
		arrival += time.Duration(rng.Intn(2000)) * time.Microsecond
		tr.Requests = append(tr.Requests, Request{
			Arrival: arrival,
			LBA:     uint64(1000 + rng.Int63n(1<<30)),
			Sectors: uint32(1 + rng.Intn(512)),
			Op:      Op(rng.Intn(2)),
		})
	}
	return tr
}

// drain pulls every request off src (without resetting first).
func drain(t *testing.T, src Source) []Request {
	t.Helper()
	var out []Request
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return out
}

func TestTraceSourceMatchesRequests(t *testing.T) {
	tr := randTrace(500, 1)
	src := tr.Source()
	if src.Name() != tr.Name {
		t.Fatalf("Name = %q, want %q", src.Name(), tr.Name)
	}
	got := drain(t, src)
	if !reflect.DeepEqual(got, tr.Requests) {
		t.Fatal("Source sweep differs from trace requests")
	}
	// Exhausted cursor stays exhausted until Reset.
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source yielded a request")
	}
	src.Reset()
	if again := drain(t, src); !reflect.DeepEqual(again, tr.Requests) {
		t.Fatal("post-Reset sweep differs")
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	tr := randTrace(300, 2)
	src := tr.Source()
	// Advance the cursor first: Materialize must Reset before draining.
	src.Next()
	src.Next()
	got, err := Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || !reflect.DeepEqual(got.Requests, tr.Requests) {
		t.Fatal("Materialize(Source) != original trace")
	}
}

func TestFactoryYieldsIndependentCursors(t *testing.T) {
	tr := randTrace(100, 3)
	f := tr.Factory()
	a, b := f(), f()
	a.Next()
	a.Next()
	a.Next()
	// b's position must be unaffected by a's progress.
	r, ok := b.Next()
	if !ok || r != tr.Requests[0] {
		t.Fatal("factory cursors share state")
	}
}

func TestCompressStreamMatchesCompress(t *testing.T) {
	tr := randTrace(200, 5)
	for _, factor := range []float64{20, 2.5, 1, 0, -3} {
		want := tr.Compress(factor)
		got, err := Materialize(CompressStream(tr.Source(), factor))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Requests, want.Requests) {
			t.Fatalf("factor %g: stream compress differs from materialized", factor)
		}
	}
}

func TestScanWindowsMatchesWindows(t *testing.T) {
	for _, n := range []int{100, 3000, 7000, 8000, 9001} {
		for _, size := range []int{0, 3000, 1024} {
			tr := randTrace(n, int64(n)*31+int64(size))
			want := Windows(tr, size)
			var got []*Trace
			err := ScanWindows(tr.Source(), size, func(w *Trace) error {
				cp := &Trace{Name: w.Name, Requests: append([]Request(nil), w.Requests...)}
				got = append(got, cp)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d size=%d: %d windows, want %d", n, size, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i].Requests, want[i].Requests) {
					t.Fatalf("n=%d size=%d: window %d differs", n, size, i)
				}
			}
		}
	}
}

func TestFeatureMatrixSourceMatchesFeatureMatrix(t *testing.T) {
	tr := randTrace(7500, 9)
	want := FeatureMatrix(Windows(tr, DefaultWindowSize))
	got, err := FeatureMatrixSource(tr.Source(), DefaultWindowSize)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed feature matrix differs from materialized")
	}
}

func TestComputeStatsSourceMatchesComputeStats(t *testing.T) {
	for _, n := range []int{0, 1, 2, 500} {
		tr := randTrace(n, int64(10+n))
		want := ComputeStats(tr)
		got, err := ComputeStatsSource(tr.Source())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("n=%d: streamed stats %+v != materialized %+v", n, got, want)
		}
	}
}

func TestBlktraceSourceMatchesParse(t *testing.T) {
	tr := randTrace(400, 11)
	var buf bytes.Buffer
	if err := WriteBlktrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	want, err := ParseBlktrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	src := NewBlktraceSource(bytes.NewReader(data), "rand")
	got, err := Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Requests, want.Requests) {
		t.Fatal("streaming reader differs from buffered parser on sorted input")
	}
	// Two Reset-separated sweeps must be identical (the simulator's
	// warm-up + measured passes rely on this).
	src.Reset()
	first := drain(t, src)
	src.Reset()
	second := drain(t, src)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("blktrace source sweeps differ across Reset")
	}
}

func TestBlktraceSourceOutOfOrder(t *testing.T) {
	src := NewBlktraceSource(strings.NewReader("2.0 5 4 R\n1.0 9 2 W\n"), "ooo")
	if r, ok := src.Next(); !ok || r.LBA != 5 {
		t.Fatalf("first request = %+v, %v", r, ok)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("out-of-order arrival should end the stream")
	}
	err := src.Err()
	if err == nil || !strings.Contains(err.Error(), "out-of-order") {
		t.Fatalf("Err() = %v, want out-of-order error", err)
	}
	if !errors.Is(err, ErrUnsorted) {
		t.Fatalf("Err() = %v, want it to wrap ErrUnsorted", err)
	}
	// Reset clears the error and replays up to the same failure point.
	src.Reset()
	if src.Err() != nil {
		t.Fatal("Reset should clear the error")
	}
	if r, ok := src.Next(); !ok || r.LBA != 5 {
		t.Fatalf("post-Reset first request = %+v, %v", r, ok)
	}
}

func TestBlktraceSourceSkipsCommentsAndBlanks(t *testing.T) {
	in := "# workload: x\r\n\r\n0.5 100 8 W\n\n# tail comment\n1.5 200 8 R\r\n"
	got := drain(t, NewBlktraceSource(strings.NewReader(in), "x"))
	if len(got) != 2 || got[0].LBA != 100 || got[1].LBA != 200 {
		t.Fatalf("parsed %+v", got)
	}
	if got[1].Op != Read || got[0].Op != Write {
		t.Fatal("ops wrong")
	}
}

func TestBlktraceSourceNegativeFirstTimestamp(t *testing.T) {
	// A sorted stream starting below zero must not trip the order check.
	got := drain(t, NewBlktraceSource(strings.NewReader("-1.0 1 8 R\n0.0 2 8 R\n"), "neg"))
	if len(got) != 2 {
		t.Fatalf("parsed %d requests, want 2", len(got))
	}
}

func TestWriteBlktraceSourceMatchesWriteBlktrace(t *testing.T) {
	tr := randTrace(250, 12)
	var want, got bytes.Buffer
	if err := WriteBlktrace(&want, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBlktraceSource(&got, tr.Source()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteBlktraceSource output differs from WriteBlktrace")
	}
}

// TestBlktraceDiscardAndStreamRecords pins the host-interface trace
// extensions: every discard spelling parses to Trim, the optional fifth
// field carries the multi-stream tag, and the streaming reader agrees
// with the buffered parser on such input. The written form (`D`, tag
// only when nonzero) must be a round-trip fixed point.
func TestBlktraceDiscardAndStreamRecords(t *testing.T) {
	in := "0.000000 100 8 D\n" +
		"0.000001 200 16 T\n" +
		"0.000002 300 8 discard\n" +
		"0.000003 400 8 TRIM\n" +
		"0.000004 500 8 W 3\n" +
		"0.000005 600 8 R 2\n" +
		"0.000006 700 64 D 1\n"
	want, err := ParseBlktrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if want.Requests[i].Op != Trim {
			t.Fatalf("request %d: op = %v, want Trim", i, want.Requests[i].Op)
		}
	}
	for i, tag := range map[int]uint32{4: 3, 5: 2, 6: 1, 0: 0} {
		if want.Requests[i].Stream != tag {
			t.Fatalf("request %d: stream = %d, want %d", i, want.Requests[i].Stream, tag)
		}
	}
	got, err := Materialize(NewBlktraceSource(strings.NewReader(in), want.Name))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Requests, want.Requests) {
		t.Fatal("streaming reader differs from buffered parser on discard/stream input")
	}

	var first, second bytes.Buffer
	if err := WriteBlktrace(&first, want); err != nil {
		t.Fatal(err)
	}
	rt, err := ParseBlktrace(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBlktrace(&second, rt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("discard/stream records are not a write->parse->write fixed point")
	}
}

// taggedTrace is randTrace with every op and stream tags 0-3, the mix
// the replay benchmark writes.
func taggedTrace(n int, seed int64) *Trace {
	tr := randTrace(n, seed)
	for i := range tr.Requests {
		tr.Requests[i].Op = Op(i % 3)
		tr.Requests[i].Stream = uint32(i % 4)
	}
	return tr
}

// TestBlktraceSourceAllocatesNothing pins the streaming decoder's cost:
// once the first sweep has run, Reset plus a full sweep of a blktrace
// file allocates nothing, whatever its length.
func TestBlktraceSourceAllocatesNothing(t *testing.T) {
	const lines = 10000
	path := filepath.Join(t.TempDir(), "t.blktrace")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBlktrace(fh, taggedTrace(lines, 21)); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	fh, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	src := NewBlktraceSource(fh, "t")
	n := 0
	allocs := testing.AllocsPerRun(3, func() {
		src.Reset()
		for n = 0; ; n++ {
			if _, ok := src.Next(); !ok {
				break
			}
		}
	})
	if err := src.Err(); err != nil || n != lines {
		t.Fatalf("sweep read %d requests, err %v; want %d", n, err, lines)
	}
	if allocs != 0 {
		t.Fatalf("Reset + sweep of %d lines allocates %v times, want 0", lines, allocs)
	}
}

// TestBlktraceLongLines pins the line-length limit of both readers: a
// line longer than the initial scan buffer is read (on every sweep),
// and one longer than maxBlktraceLine is an error.
func TestBlktraceLongLines(t *testing.T) {
	long := "# " + strings.Repeat("x", 3*blktraceBufSize) + "\n0.5 100 8 W\n"
	tr, err := ParseBlktrace(strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 1 {
		t.Fatalf("ParseBlktrace: %d requests, want 1", len(tr.Requests))
	}
	src := NewBlktraceSource(strings.NewReader(long), "long")
	for sweep := 0; sweep < 2; sweep++ {
		src.Reset()
		if got := drain(t, src); !reflect.DeepEqual(got, tr.Requests) {
			t.Fatalf("sweep %d: %+v, want %+v", sweep, got, tr.Requests)
		}
	}

	tooLong := strings.Repeat("x", maxBlktraceLine+1) + "\n"
	if _, err := ParseBlktrace(strings.NewReader(tooLong)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("ParseBlktrace: err %v, want %v", err, bufio.ErrTooLong)
	}
	src = NewBlktraceSource(strings.NewReader(tooLong), "too long")
	if _, ok := src.Next(); ok || !errors.Is(src.Err(), bufio.ErrTooLong) {
		t.Fatalf("source: ok %v, err %v, want %v", ok, src.Err(), bufio.ErrTooLong)
	}
}

// TestBlktraceArrivalsExact pins the timestamp decode to whole
// nanoseconds: every arrival the writer emits and every blkparse-style
// %d.%09d stamp reads back exactly, ties at the 10th fraction digit
// round away from zero, and ±2^62 ns is the last value in range.
func TestBlktraceArrivalsExact(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	check := func(want time.Duration, line []byte) {
		t.Helper()
		req, _, err := parseBlktraceLine(1, line)
		if err != nil || req.Arrival != want {
			t.Fatalf("%q: arrival %v, err %v; want %v", line, req.Arrival, err, want)
		}
	}
	for us := time.Duration(0); us < time.Second; us += time.Microsecond {
		buf.Reset()
		if err := writeBlktraceLine(w, Request{Arrival: us, LBA: 1, Sectors: 8}); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		check(us, buf.Bytes())
	}
	var line []byte
	for ns := int64(0); ns < 100e9; ns += 99991 {
		line = fmt.Appendf(line[:0], "%d.%09d 1 8 R", ns/1e9, ns%1e9)
		check(time.Duration(ns), line)
	}

	for ts, want := range map[string]time.Duration{
		"0.0000000005":           1,
		"-0.0000000005":          -1,
		"0.00000000049999":       0,
		"-0.00000000049999":      0,
		"1.0000000015":           1000000002,
		"-1.0000000015":          -1000000002,
		"2.99999999950":          3 * time.Second,
		"-2.99999999951":         -3 * time.Second,
		"7.1234567894999":        7123456789,
		"4611686018.427387904":   1 << 62,
		"-4611686018.427387904":  -1 << 62,
		"4611686018.4273879044":  1 << 62,
		"+4611686018.4273879039": 1 << 62,
		"00000000000000000012.5": 12500 * time.Millisecond,
		"5.":                     5 * time.Second,
		".5":                     500 * time.Millisecond,
		"-0":                     0,
		"3":                      3 * time.Second,
		"0042":                   42 * time.Second,
	} {
		check(want, []byte(ts+" 1 8 R"))
	}
	for _, ts := range []string{
		"4611686018.427387905",
		"-4611686018.427387905",
		"4611686018.4273879045",
		"4611686019",
		"99999999999999999999999999",
		"18446744073.709551616", // 2^64 ns, which would wrap to 0
	} {
		_, _, err := parseBlktraceLine(1, []byte(ts+" 1 8 R"))
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("%s: err %v, want out of range", ts, err)
		}
	}
}
