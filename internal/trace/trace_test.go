package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mkTrace(n int, op Op) *Trace {
	t := &Trace{Name: "test"}
	for i := 0; i < n; i++ {
		t.Requests = append(t.Requests, Request{
			Arrival: time.Duration(i) * time.Millisecond,
			LBA:     uint64(1000 + i*8),
			Sectors: 8,
			Op:      op,
		})
	}
	return t
}

func TestRequestBytes(t *testing.T) {
	r := Request{Sectors: 8}
	if r.Bytes() != 4096 {
		t.Fatalf("Bytes = %d, want 4096", r.Bytes())
	}
}

func TestTraceAccessors(t *testing.T) {
	st := ComputeStats(mkTrace(10, Read))
	if st.Duration != 9*time.Millisecond {
		t.Fatalf("Duration = %v", st.Duration)
	}
	if st.ReadFraction != 1 {
		t.Fatalf("ReadFraction = %v", st.ReadFraction)
	}
	if st.TotalBytes != 10*4096 {
		t.Fatalf("TotalBytes = %d", st.TotalBytes)
	}
	if empty := ComputeStats(&Trace{}); empty.Duration != 0 || empty.ReadFraction != 0 {
		t.Fatal("empty trace accessors")
	}
}

func TestSplit(t *testing.T) {
	tr := mkTrace(10, Write)
	train, valid := tr.Split(0.7)
	if len(train.Requests) != 7 || len(valid.Requests) != 3 {
		t.Fatalf("split = %d/%d", len(train.Requests), len(valid.Requests))
	}
	train, valid = tr.Split(2.0)
	if len(train.Requests) != 10 || len(valid.Requests) != 0 {
		t.Fatal("overflow split should clamp")
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	orig := mkTrace(50, Read)
	orig.Requests[3].Op = Write
	var buf bytes.Buffer
	if err := WriteBlktrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseBlktrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Requests) != len(orig.Requests) {
		t.Fatalf("parsed %d requests, want %d", len(parsed.Requests), len(orig.Requests))
	}
	for i := range orig.Requests {
		a, b := orig.Requests[i], parsed.Requests[i]
		if a.LBA != b.LBA || a.Sectors != b.Sectors || a.Op != b.Op {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, a, b)
		}
		if d := a.Arrival - b.Arrival; d > time.Microsecond || d < -time.Microsecond {
			t.Fatalf("request %d arrival drift %v", i, d)
		}
	}
}

// TestWriteBlktraceLineMatchesFprintf pins the in-place encoder to the
// fmt form it replaced, byte for byte.
func TestWriteBlktraceLineMatchesFprintf(t *testing.T) {
	fprintf := func(r Request) string {
		if r.Stream != 0 {
			return fmt.Sprintf("%.6f %d %d %s %d\n", r.Arrival.Seconds(), r.LBA, r.Sectors, r.Op, r.Stream)
		}
		return fmt.Sprintf("%.6f %d %d %s\n", r.Arrival.Seconds(), r.LBA, r.Sectors, r.Op)
	}
	arrivals := []time.Duration{0, -1, -3250 * time.Millisecond, 1500 * time.Microsecond,
		time.Duration(math.MaxInt64), time.Duration(math.MinInt64)}
	var buf bytes.Buffer
	w := bufio.NewWriterSize(&buf, 64) // small, so lines cross flushes
	var want strings.Builder
	for _, arrival := range arrivals {
		for _, op := range []Op{Read, Write, Trim} {
			for _, stream := range []uint32{0, 1, math.MaxUint32} {
				for _, lba := range []uint64{0, 8, math.MaxUint64} {
					r := Request{Arrival: arrival, LBA: lba, Sectors: uint32(lba), Op: op, Stream: stream}
					if err := writeBlktraceLine(w, r); err != nil {
						t.Fatal(err)
					}
					want.WriteString(fprintf(r))
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want.String() {
		t.Fatalf("writeBlktraceLine output:\n%s\nwant:\n%s", buf.String(), want.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"1.0 100 8",   // too few fields
		"x 100 8 R",   // bad ts
		"1.0 x 8 R",   // bad lba
		"1.0 100 x R", // bad sectors
		"1.0 100 8 Q", // bad op
		// Forms outside the grammar that strconv and strings.Fields took.
		"1e3 100 8 R",
		"0x1p-2 100 8 R",
		"inf 100 8 R",
		"1.0\u3000100 8 R",
		"1.0 100 8 WR\u0131TE",
	}
	for _, c := range cases {
		if _, err := ParseBlktrace(strings.NewReader(c)); err == nil {
			t.Fatalf("expected parse error for %q", c)
		}
	}
	// Comments, whatever bytes they hold, and blank lines are fine.
	tr, err := ParseBlktrace(strings.NewReader("# hi\n\n# caf\u00e9 \xff\u3000\n0.5 100 8 W\n"))
	if err != nil || len(tr.Requests) != 1 {
		t.Fatalf("comment handling failed: %v %v", tr, err)
	}
}

func TestParseSortsByArrival(t *testing.T) {
	in := "2.0 200 8 R\n1.0 100 8 R\n"
	tr, err := ParseBlktrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Requests[0].LBA != 100 {
		t.Fatal("requests not sorted by arrival")
	}
}

func TestWindows(t *testing.T) {
	tr := mkTrace(7000, Read)
	ws := Windows(tr, 3000)
	// 3000 + 3000 + 1000(<1500 dropped) => but 1000 < 1500 so dropped.
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	tr2 := mkTrace(8000, Read)
	ws2 := Windows(tr2, 3000)
	// trailing window of 2000 >= 1500 kept.
	if len(ws2) != 3 {
		t.Fatalf("got %d windows, want 3", len(ws2))
	}
	if len(Windows(mkTrace(100, Read), 3000)) != 1 {
		t.Fatal("short trace should yield one window")
	}
	if len(Windows(mkTrace(100, Read), 0)) != 1 {
		t.Fatal("zero size should use default")
	}
}

func TestWindowFeaturesSequentialVsRandom(t *testing.T) {
	seqTrace := mkTrace(1000, Read) // perfectly sequential
	rng := rand.New(rand.NewSource(1))
	rnd := &Trace{}
	for i := 0; i < 1000; i++ {
		rnd.Requests = append(rnd.Requests, Request{
			Arrival: time.Duration(i) * time.Millisecond,
			LBA:     uint64(rng.Intn(1 << 24)),
			Sectors: 8,
			Op:      Read,
		})
	}
	fs := WindowFeatures(seqTrace)
	fr := WindowFeatures(rnd)
	if fs[5] < 0.95 {
		t.Fatalf("sequential fraction of sequential trace = %g", fs[5])
	}
	if fr[5] > 0.05 {
		t.Fatalf("sequential fraction of random trace = %g", fr[5])
	}
	if fr[7] <= fs[7] {
		t.Fatal("random trace should have larger mean jump")
	}
	// A hot-spot workload (most accesses in a narrow region of a wide
	// space) must have lower spatial entropy than the uniform random one.
	hot := &Trace{}
	for i := 0; i < 1000; i++ {
		lba := uint64(rng.Intn(1 << 12))
		if i%100 == 0 {
			lba = uint64(rng.Intn(1 << 24)) // occasional far access widens span
		}
		hot.Requests = append(hot.Requests, Request{
			Arrival: time.Duration(i) * time.Millisecond, LBA: lba, Sectors: 8, Op: Read,
		})
	}
	if fh := WindowFeatures(hot); fh[11] >= fr[11] {
		t.Fatalf("hotspot trace entropy %g should be below random %g", fh[11], fr[11])
	}
}

func TestWindowFeaturesIntensity(t *testing.T) {
	slow := &Trace{}
	fast := &Trace{}
	for i := 0; i < 500; i++ {
		slow.Requests = append(slow.Requests, Request{Arrival: time.Duration(i) * 10 * time.Millisecond, LBA: uint64(i * 8), Sectors: 8})
		fast.Requests = append(fast.Requests, Request{Arrival: time.Duration(i) * 10 * time.Microsecond, LBA: uint64(i * 8), Sectors: 8})
	}
	if WindowFeatures(fast)[12] <= WindowFeatures(slow)[12] {
		t.Fatal("IOPS feature should increase with intensity")
	}
	if WindowFeatures(fast)[3] >= WindowFeatures(slow)[3] {
		t.Fatal("inter-arrival feature should decrease with intensity")
	}
}

func TestWindowFeaturesEmpty(t *testing.T) {
	f := WindowFeatures(&Trace{})
	if len(f) != NumWindowFeatures {
		t.Fatalf("feature count = %d, want %d", len(f), NumWindowFeatures)
	}
	for i, v := range f {
		if v != 0 {
			t.Fatalf("feature %d of empty window = %g, want 0", i, v)
		}
	}
}

// Property: features are finite for arbitrary traces.
func TestWindowFeaturesFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{}
		n := 1 + rng.Intn(200)
		var arrival time.Duration
		for i := 0; i < n; i++ {
			arrival += time.Duration(rng.Intn(1000)) * time.Microsecond
			tr.Requests = append(tr.Requests, Request{
				Arrival: arrival,
				LBA:     uint64(rng.Int63n(1 << 30)),
				Sectors: uint32(1 + rng.Intn(2048)),
				Op:      Op(rng.Intn(2)),
			})
		}
		for _, v := range WindowFeatures(tr) {
			if v != v || v > 1e18 || v < -1e18 { // NaN or absurd
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureMatrix(t *testing.T) {
	tr := mkTrace(6000, Read)
	ws := Windows(tr, 3000)
	fm := FeatureMatrix(ws)
	if len(fm) != len(ws) {
		t.Fatalf("matrix rows %d, want %d", len(fm), len(ws))
	}
	for _, row := range fm {
		if len(row) != NumWindowFeatures {
			t.Fatalf("row width %d", len(row))
		}
	}
}

func TestCompress(t *testing.T) {
	tr := mkTrace(100, Read)
	c := tr.Compress(10)
	if len(c.Requests) != 100 {
		t.Fatalf("compress changed request count")
	}
	for i := range c.Requests {
		if c.Requests[i].Arrival != tr.Requests[i].Arrival/10 {
			t.Fatalf("arrival %d not divided: %v vs %v", i, c.Requests[i].Arrival, tr.Requests[i].Arrival)
		}
		if c.Requests[i].LBA != tr.Requests[i].LBA {
			t.Fatal("compress changed addresses")
		}
	}
	// Original untouched.
	if tr.Requests[99].Arrival != 99*time.Millisecond {
		t.Fatal("Compress mutated the source trace")
	}
	// Non-positive factor is identity.
	id := tr.Compress(0)
	if id.Requests[99].Arrival != tr.Requests[99].Arrival {
		t.Fatal("factor 0 should be identity")
	}
}
