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
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			v := bucketHigh(i)
			if mx := h.max.Load(); v > mx {
				v = mx
			}
			return v
		}
	}
	return h.max.Load()
}

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
	s := HistogramSnapshot{
		Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
		P50: h.Quantile(0.50), P95: h.Quantile(0.95),
		P99: h.Quantile(0.99), P999: h.Quantile(0.999),
	}
	for i := 0; i < histBuckets; i++ {
		if c := h.buckets[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, Bucket{Low: bucketLow(i), High: bucketHigh(i), Count: c})
		}
	}
	return s
}
