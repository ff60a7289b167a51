package obs

import (
	"strconv"
	"strings"
)

// Metric merging and delta encoding: the primitives behind fleet-wide
// aggregation. A worker process snapshots its registry, delta-encodes it
// against the previous push, and ships the delta over the wire; the
// coordinator absorbs each delta into one fleet registry under a
// per-worker label. Histogram merging is exact — every process shares
// the same fixed log-linear bucket layout, so a snapshot bucket's lower
// bound identifies its index and counts add without re-binning error.

// Merge folds a histogram snapshot into h (no-op on nil h or an empty
// snapshot). Merging is exact: quantiles of the merged histogram carry
// the same ≤1/32 relative bin error as a histogram that recorded the
// combined sample stream directly. Snapshots from DeltaSince compose the
// same way, because bucket counts are additive and Min/Max only ever
// tighten monotonically.
func (h *Histogram) Merge(s HistogramSnapshot) {
	if h == nil || s.Count == 0 {
		return
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	for _, b := range s.Buckets {
		h.buckets[bucketIndex(b.Low)].Add(b.Count)
	}
	for {
		cur := h.min.Load()
		if s.Min >= cur || h.min.CompareAndSwap(cur, s.Min) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if s.Max <= cur || h.max.CompareAndSwap(cur, s.Max) {
			break
		}
	}
}

// DeltaSince returns the changes in s relative to an earlier snapshot
// prev of the same registry: counter increments, gauge values that
// changed (gauges are absolute, so the current value is the delta
// representation), and per-bucket histogram count increments. Series
// absent from prev appear whole. The result is what a worker pushes
// over the wire; Registry.Absorb applies it on the far side.
func (s Snapshot) DeltaSince(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for name, v := range s.Counters {
		if dv := v - prev.Counters[name]; dv != 0 {
			d.Counters[name] = dv
		}
	}
	for name, v := range s.Gauges {
		if pv, ok := prev.Gauges[name]; !ok || pv != v {
			d.Gauges[name] = v
		}
	}
	for name, h := range s.Histograms {
		ph, ok := prev.Histograms[name]
		if !ok {
			d.Histograms[name] = h
			continue
		}
		if h.Count == ph.Count {
			continue
		}
		d.Histograms[name] = histDelta(h, ph)
	}
	return d
}

// Empty reports whether a snapshot carries no series at all (a delta
// with nothing to push).
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// histDelta subtracts prev's bucket counts from cur's. Both bucket lists
// are sorted by Low (Snapshot emits them in index order), so one merge
// walk suffices. Min/Max stay absolute: they tighten monotonically, so
// merging the current values is always correct.
func histDelta(cur, prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{
		Count: cur.Count - prev.Count,
		Sum:   cur.Sum - prev.Sum,
		Min:   cur.Min,
		Max:   cur.Max,
		P50:   cur.P50, P95: cur.P95, P99: cur.P99, P999: cur.P999,
	}
	j := 0
	for _, b := range cur.Buckets {
		for j < len(prev.Buckets) && prev.Buckets[j].Low < b.Low {
			j++
		}
		c := b.Count
		if j < len(prev.Buckets) && prev.Buckets[j].Low == b.Low {
			c -= prev.Buckets[j].Count
		}
		if c != 0 {
			d.Buckets = append(d.Buckets, Bucket{Low: b.Low, High: b.High, Count: c})
		}
	}
	return d
}

// Absorb folds a snapshot (typically a DeltaSince delta) into the
// registry, rewriting every series name with an extra label — the
// coordinator calls Absorb(delta, "worker", name) to keep one fleet
// registry with per-worker series. Counter deltas add, gauge values
// overwrite, histogram deltas merge exactly. An empty labelKey absorbs
// under the original names. No-op on a nil registry.
func (r *Registry) Absorb(s Snapshot, labelKey, labelValue string) {
	if r == nil {
		return
	}
	for name, v := range s.Counters {
		r.Counter(WithLabel(name, labelKey, labelValue)).Add(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(WithLabel(name, labelKey, labelValue)).Set(v)
	}
	for name, h := range s.Histograms {
		r.Histogram(WithLabel(name, labelKey, labelValue)).Merge(h)
	}
}

// WithLabel appends key="value" to a series name's baked-in label set,
// creating one when the name has none. The value is quoted with Go
// escaping, which matches the Prometheus label escaping rules for
// backslash, quote and newline.
func WithLabel(name, key, value string) string {
	if key == "" {
		return name
	}
	label := key + "=" + strconv.Quote(value)
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		if i == len(name)-2 { // empty label set "name{}"
			return name[:len(name)-1] + label + "}"
		}
		return name[:len(name)-1] + "," + label + "}"
	}
	return name + "{" + label + "}"
}
