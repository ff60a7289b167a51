package trace

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

func benchTrace(n int) *Trace {
	t := &Trace{Name: "bench"}
	for i := 0; i < n; i++ {
		t.Requests = append(t.Requests, Request{
			Arrival: time.Duration(i) * 50 * time.Microsecond,
			LBA:     uint64(i*37) % (1 << 30),
			Sectors: 16,
			Op:      Op(i % 2),
		})
	}
	return t
}

// BenchmarkWindowFeatures measures per-window feature extraction — the
// Table 6 "extract workload features" component.
func BenchmarkWindowFeatures(b *testing.B) {
	w := benchTrace(DefaultWindowSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WindowFeatures(w)
	}
}

func BenchmarkWindows100K(b *testing.B) {
	tr := benchTrace(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Windows(tr, DefaultWindowSize)
	}
}

// BenchmarkBlktraceDecode measures the streaming blktrace decoder alone:
// one op is Reset plus a full sweep of an in-memory 100000-line file
// with every op and stream tags, reported per record.
func BenchmarkBlktraceDecode(b *testing.B) {
	const lines = 100000
	var buf bytes.Buffer
	if err := WriteBlktrace(&buf, taggedTrace(lines, 22)); err != nil {
		b.Fatal(err)
	}
	src := NewBlktraceSource(bytes.NewReader(buf.Bytes()), "bench")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		for {
			if _, ok := src.Next(); !ok {
				break
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if err := src.Err(); err != nil {
		b.Fatal(err)
	}
	records := float64(b.N * lines)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/records, "B/record")
}
