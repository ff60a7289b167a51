package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Log-linear bucket layout (HdrHistogram-style): values below
// histSubBuckets get one exact bucket each; above that, every power-of-two
// octave is subdivided into histSubBuckets linear buckets, bounding the
// relative quantile error by 1/histSubBuckets (≈3.1%).
const (
	histSubBits    = 5
	histSubBuckets = 1 << histSubBits
	// histBuckets covers every non-negative int64: the exact region plus
	// (63 - histSubBits + 1) octaves of histSubBuckets buckets each.
	histBuckets = (64 - histSubBits) << histSubBits
)

// Histogram is a fixed-memory, lock-free log-linear histogram of
// non-negative int64 samples (typically nanoseconds). All methods are
// safe for concurrent use and no-ops on a nil receiver, so disabled
// instrumentation costs one nil check and zero allocations.
//
// Counts are atomic per field; a Snapshot taken concurrently with
// recording is internally consistent per bucket but not across fields.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns an empty standalone histogram (registries create
// theirs via Registry.Histogram).
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIndex maps a sample to its bucket. Negative samples clamp to 0.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSubBuckets {
		return int(v)
	}
	h := bits.Len64(uint64(v)) - 1 // position of the highest set bit
	octave := h - histSubBits + 1
	sub := int((uint64(v) >> uint(h-histSubBits)) & (histSubBuckets - 1))
	return octave<<histSubBits | sub
}

// bucketLow returns the inclusive lower bound of bucket i.
func bucketLow(i int) int64 {
	if i < histSubBuckets {
		return int64(i)
	}
	octave := i >> histSubBits
	sub := i & (histSubBuckets - 1)
	return (int64(histSubBuckets) + int64(sub)) << uint(octave-1)
}

// bucketHigh returns the inclusive upper bound of bucket i.
func bucketHigh(i int) int64 {
	if i+1 >= histBuckets {
		return math.MaxInt64
	}
	return bucketLow(i+1) - 1
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Quantile returns a conservative nearest-rank estimate of the q-th
// quantile (q in [0,1]): the upper bound of the bucket holding the rank,
// clamped to the observed maximum. The estimate never undershoots the
// exact nearest-rank value and overshoots it by at most one bucket width
// (relative error ≤ 1/32); samples below 32 are exact.
func (h *Histogram) Quantile(q float64) int64 {
	s := h.Snapshot()
	return s.quantile(q)
}

// histState is read access to a histogram's fields: Histogram loads
// them atomically, LocalHistogram reads them directly. Snapshot reads
// through it, so both forms share one snapshot and quantile
// implementation.
type histState interface {
	Count() int64
	Sum() int64
	Min() int64
	Max() int64
	bucket(i int) int64
}

func (h *Histogram) bucket(i int) int64 { return h.buckets[i].Load() }

// Bucket is one non-empty bucket of a histogram snapshot.
type Bucket struct {
	Low   int64 `json:"low"`   // inclusive lower bound
	High  int64 `json:"high"`  // inclusive upper bound
	Count int64 `json:"count"` // samples in [Low, High]
}

// HistogramSnapshot is a point-in-time copy of a histogram, carrying the
// non-empty buckets and headline quantiles.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	P50     int64    `json:"p50"`
	P95     int64    `json:"p95"`
	P99     int64    `json:"p99"`
	P999    int64    `json:"p999"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram state (nil-safe; empty snapshot on nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return snapshot(h)
}

func snapshot(h histState) HistogramSnapshot {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max()}
	for i := 0; i < histBuckets; i++ {
		if c := h.bucket(i); c > 0 {
			s.Buckets = append(s.Buckets, Bucket{Low: bucketLow(i), High: bucketHigh(i), Count: c})
		}
	}
	s.P50, s.P95 = s.quantile(0.50), s.quantile(0.95)
	s.P99, s.P999 = s.quantile(0.99), s.quantile(0.999)
	return s
}

// quantile is Histogram.Quantile on the snapshot's buckets.
func (s *HistogramSnapshot) quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	rank = min(max(rank, 1), s.Count)
	var cum int64
	for _, b := range s.Buckets {
		if cum += b.Count; cum >= rank {
			return min(b.High, s.Max)
		}
	}
	return s.Max
}

// LocalHistogram is Histogram's single-writer form: the same bucket
// layout, quantiles and snapshot, recorded with plain adds instead of
// atomics. It is not safe for concurrent use: one goroutine records
// into it and hands its Snapshot on (Histogram.Merge folds that into a
// shared histogram exactly). The zero value is an empty histogram.
type LocalHistogram struct {
	count, sum, min, max int64 // min and max are valid only when count > 0
	buckets              [histBuckets]int64
}

// Record adds one sample; negative samples clamp to 0.
func (h *LocalHistogram) Record(v int64) {
	v = max(v, 0)
	h.count++
	h.sum += v
	h.buckets[bucketIndex(v)]++
	if h.count == 1 || v < h.min {
		h.min = v
	}
	h.max = max(h.max, v)
}

// Count returns the number of recorded samples.
func (h *LocalHistogram) Count() int64 { return h.count }

// Sum returns the sum of recorded samples.
func (h *LocalHistogram) Sum() int64 { return h.sum }

// Min returns the smallest recorded sample (0 when empty).
func (h *LocalHistogram) Min() int64 { return h.min }

// Max returns the largest recorded sample (0 when empty).
func (h *LocalHistogram) Max() int64 { return h.max }

// Quantile is Histogram.Quantile on the recorded samples.
func (h *LocalHistogram) Quantile(q float64) int64 {
	s := h.Snapshot()
	return s.quantile(q)
}

// Snapshot copies the histogram state.
func (h *LocalHistogram) Snapshot() HistogramSnapshot { return snapshot(h) }

func (h *LocalHistogram) bucket(i int) int64 { return h.buckets[i] }
