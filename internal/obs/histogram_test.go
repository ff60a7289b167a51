package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// exactQuantile is the nearest-rank quantile on a sorted copy.
func exactQuantile(vals []int64, q float64) int64 {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// checkQuantiles asserts the histogram's quantile estimates stay within
// the documented bucket error bound of the exact nearest-rank values:
// never below, and above by at most one bucket width (≤1/32 relative).
func checkQuantiles(t *testing.T, vals []int64, qs ...float64) {
	t.Helper()
	h := NewHistogram()
	for _, v := range vals {
		h.Record(v)
	}
	for _, q := range qs {
		exact := exactQuantile(vals, q)
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("q=%g: estimate %d below exact %d", q, got, exact)
		}
		bound := exact + exact/histSubBuckets + 1
		if got > bound {
			t.Errorf("q=%g: estimate %d exceeds error bound %d (exact %d)", q, got, bound, exact)
		}
	}
}

func TestHistogramQuantileUniform(t *testing.T) {
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(i + 1) // uniform 1..10000
	}
	checkQuantiles(t, vals, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0)
}

func TestHistogramQuantileLogNormalish(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 20000)
	for i := range vals {
		vals[i] = int64(math.Exp(rng.NormFloat64()*1.5+10)) + 1 // ~e^10 ns scale, heavy tail
	}
	checkQuantiles(t, vals, 0.5, 0.95, 0.99, 0.999)
}

func TestHistogramQuantileConstant(t *testing.T) {
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = 123_456_789
	}
	h := NewHistogram()
	for _, v := range vals {
		h.Record(v)
	}
	// Clamping to the observed max makes every quantile of a constant
	// distribution exact.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 123_456_789 {
			t.Fatalf("q=%g of constant distribution = %d, want 123456789", q, got)
		}
	}
}

func TestHistogramQuantileTwoPoint(t *testing.T) {
	// 99 fast requests, 1 slow: p50/p99 must stay at the fast mode (within
	// bucket error), p100 must be the exact outlier.
	var vals []int64
	for i := 0; i < 99; i++ {
		vals = append(vals, 1000)
	}
	vals = append(vals, 5_000_000)
	checkQuantiles(t, vals, 0.5, 0.99)
	h := NewHistogram()
	for _, v := range vals {
		h.Record(v)
	}
	if got := h.Quantile(1); got != 5_000_000 {
		t.Fatalf("p100 = %d, want exact max 5000000", got)
	}
}

func TestHistogramExactRegion(t *testing.T) {
	// Values below 32 land in width-1 buckets: quantiles are exact.
	h := NewHistogram()
	for v := int64(0); v < 32; v++ {
		h.Record(v)
	}
	if got := h.Quantile(0.5); got != 15 {
		t.Fatalf("p50 of 0..31 = %d, want 15", got)
	}
	if h.Min() != 0 || h.Max() != 31 || h.Count() != 32 {
		t.Fatalf("min/max/count = %d/%d/%d, want 0/31/32", h.Min(), h.Max(), h.Count())
	}
}

func TestHistogramBucketLayout(t *testing.T) {
	// Round-trip: every value must fall inside its own bucket's bounds,
	// and bucket bounds must tile the axis without gaps or overlaps.
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := bucketIndex(v)
		if lo, hi := bucketLow(i), bucketHigh(i); v < lo || v > hi {
			t.Errorf("value %d mapped to bucket %d [%d,%d]", v, i, lo, hi)
		}
	}
	for i := 0; i < histBuckets-1; i++ {
		if bucketHigh(i)+1 != bucketLow(i+1) {
			t.Fatalf("gap between buckets %d and %d: high %d, next low %d",
				i, i+1, bucketHigh(i), bucketLow(i+1))
		}
	}
}

func TestHistogramNilAndNegative(t *testing.T) {
	var h *Histogram
	h.Record(5) // must not panic
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read as empty")
	}
	h2 := NewHistogram()
	h2.Record(-100) // clamps to 0
	if h2.Min() != 0 || h2.Max() != 0 || h2.Count() != 1 {
		t.Fatalf("negative sample should clamp to 0: min=%d max=%d", h2.Min(), h2.Max())
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const goroutines, per = 8, 10000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
	var want int64 = goroutines * per * (goroutines*per - 1) / 2
	if h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
	snap := h.Snapshot()
	var n int64
	for _, b := range snap.Buckets {
		n += b.Count
	}
	if n != h.Count() {
		t.Fatalf("snapshot bucket counts sum to %d, want %d", n, h.Count())
	}
}

// TestLocalHistogramMatchesHistogram: on the same samples the
// single-writer form reads exactly as Histogram does, through every
// accessor and the snapshot, and folding its snapshot into a registry
// histogram equals recording the samples there directly.
func TestLocalHistogramMatchesHistogram(t *testing.T) {
	edge := []int64{math.MinInt64, -100, -1, 0, 1, 17, 31, 32, 33, 63, 64,
		1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(5))
	random := make([]int64, 5000)
	for i := range random {
		random[i] = rng.Int63() >> uint(rng.Intn(63))
	}
	for _, tc := range []struct {
		name    string
		samples []int64
	}{
		{"empty", nil},
		{"one negative", []int64{-7}},
		{"one small", []int64{12}},
		{"near MaxInt64", []int64{math.MaxInt64, math.MaxInt64 - 3}},
		{"edges", edge},
		{"random", random},
		{"random and edges", append(append([]int64(nil), random...), edge...)},
	} {
		h := NewHistogram()
		var l LocalHistogram
		for _, v := range tc.samples {
			h.Record(v)
			l.Record(v)
		}
		if l.Count() != h.Count() || l.Sum() != h.Sum() || l.Min() != h.Min() || l.Max() != h.Max() {
			t.Fatalf("%s: local count/sum/min/max %d/%d/%d/%d, Histogram %d/%d/%d/%d", tc.name,
				l.Count(), l.Sum(), l.Min(), l.Max(), h.Count(), h.Sum(), h.Min(), h.Max())
		}
		for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.95, 0.99, 0.999, 1} {
			if got, want := l.Quantile(q), h.Quantile(q); got != want {
				t.Fatalf("%s: local Quantile(%g) = %d, Histogram %d", tc.name, q, got, want)
			}
		}
		if got, want := l.Snapshot(), h.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: local snapshot %+v, Histogram %+v", tc.name, got, want)
		}

		// Fold into a registry histogram that already holds samples, as
		// a simulator's run merges into the shared request-latency one.
		reg := NewRegistry()
		merged, direct := reg.Histogram("merged"), reg.Histogram("direct")
		for _, v := range []int64{5, 900, 1 << 20} {
			merged.Record(v)
			direct.Record(v)
		}
		merged.Merge(l.Snapshot())
		for _, v := range tc.samples {
			direct.Record(v)
		}
		if got, want := merged.Snapshot(), direct.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: merged snapshot %+v, recorded directly %+v", tc.name, got, want)
		}
	}
}
