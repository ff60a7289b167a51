package obs

import (
	"math/rand"
	"sync"
	"testing"
)

// TestHistogramMergeExact is the merge property test: because every
// histogram shares one fixed bucket layout, Merge(a, b) must be
// bucket-for-bucket identical to a histogram that recorded both sample
// streams directly — same counts, sum, min/max, and therefore identical
// quantiles (within the layout's usual ≤1/32 bin error vs. the true
// stream, but with NO additional merge error).
func TestHistogramMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a, b, combined := NewHistogram(), NewHistogram(), NewHistogram()
		na, nb := rng.Intn(2000), rng.Intn(2000)
		for i := 0; i < na; i++ {
			v := rng.Int63n(1 << uint(8+rng.Intn(40)))
			a.Record(v)
			combined.Record(v)
		}
		for i := 0; i < nb; i++ {
			v := rng.Int63n(1 << uint(8+rng.Intn(40)))
			b.Record(v)
			combined.Record(v)
		}

		merged := NewHistogram()
		merged.Merge(a.Snapshot())
		merged.Merge(b.Snapshot())
		got, want := merged.Snapshot(), combined.Snapshot()

		if got.Count != want.Count || got.Sum != want.Sum {
			t.Fatalf("trial %d: merged count/sum %d/%d, combined %d/%d", trial, got.Count, got.Sum, want.Count, want.Sum)
		}
		if want.Count > 0 && (got.Min != want.Min || got.Max != want.Max) {
			t.Fatalf("trial %d: merged min/max %d/%d, combined %d/%d", trial, got.Min, got.Max, want.Min, want.Max)
		}
		if len(got.Buckets) != len(want.Buckets) {
			t.Fatalf("trial %d: merged %d buckets, combined %d", trial, len(got.Buckets), len(want.Buckets))
		}
		for i := range got.Buckets {
			if got.Buckets[i] != want.Buckets[i] {
				t.Fatalf("trial %d: bucket %d: merged %+v, combined %+v", trial, i, got.Buckets[i], want.Buckets[i])
			}
		}
		for _, q := range []struct {
			name      string
			got, want int64
		}{
			{"p50", got.P50, want.P50}, {"p95", got.P95, want.P95},
			{"p99", got.P99, want.P99}, {"p999", got.P999, want.P999},
		} {
			if q.got != q.want {
				t.Fatalf("trial %d: %s: merged %d, combined %d", trial, q.name, q.got, q.want)
			}
		}
	}
}

func TestMergeSnapshots(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(10)
	a.Record(20)
	b.Record(1000)
	m := NewHistogram()
	m.Merge(a.Snapshot())
	m.Merge(b.Snapshot())
	s := m.Snapshot()
	if s.Count != 3 || s.Sum != 1030 || s.Min != 10 || s.Max != 1000 {
		t.Fatalf("bad merged snapshot: %+v", s)
	}
	// Merging an empty snapshot is a no-op.
	h := NewHistogram()
	h.Merge(HistogramSnapshot{})
	if h.Count() != 0 {
		t.Fatal("empty merge recorded samples")
	}
}

// TestDeltaSinceAbsorbRoundTrip pins the wire contract: pushing
// successive deltas of a live registry into a second registry (under a
// worker label) must reproduce the source registry's series exactly.
func TestDeltaSinceAbsorbRoundTrip(t *testing.T) {
	src := NewRegistry()
	fleet := NewRegistry()
	var prev Snapshot

	push := func() {
		cur := src.Snapshot()
		delta := cur.DeltaSince(prev)
		fleet.Absorb(delta, "worker", "w1")
		prev = cur
	}

	src.Counter("jobs_total").Add(3)
	src.Gauge("depth").Set(2.5)
	src.Histogram("lat_ns").Record(100)
	src.Histogram("lat_ns").Record(200)
	push()

	src.Counter("jobs_total").Add(4)
	src.Gauge("depth").Set(1.0)
	src.Histogram("lat_ns").Record(100)
	src.Histogram("lat_ns").Record(1 << 20)
	push()

	// A push with no changes must be empty.
	if d := src.Snapshot().DeltaSince(prev); !d.Empty() {
		t.Fatalf("idle delta not empty: %+v", d)
	}

	got := fleet.Snapshot()
	if n := got.Counters[`jobs_total{worker="w1"}`]; n != 7 {
		t.Fatalf("absorbed counter = %d, want 7", n)
	}
	if g := got.Gauges[`depth{worker="w1"}`]; g != 1.0 {
		t.Fatalf("absorbed gauge = %g, want 1.0", g)
	}
	want := src.Snapshot().Histograms["lat_ns"]
	h := got.Histograms[`lat_ns{worker="w1"}`]
	if h.Count != want.Count || h.Sum != want.Sum || h.Min != want.Min || h.Max != want.Max {
		t.Fatalf("absorbed histogram %+v, want %+v", h, want)
	}
	if len(h.Buckets) != len(want.Buckets) {
		t.Fatalf("absorbed %d buckets, want %d", len(h.Buckets), len(want.Buckets))
	}
	for i := range h.Buckets {
		if h.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d: absorbed %+v, want %+v", i, h.Buckets[i], want.Buckets[i])
		}
	}
}

func TestWithLabel(t *testing.T) {
	cases := []struct {
		name, key, value, want string
	}{
		{"jobs_total", "worker", "w1", `jobs_total{worker="w1"}`},
		{`busy_ns{worker="3"}`, "host", "h", `busy_ns{worker="3",host="h"}`},
		{"plain{}", "k", "v", `plain{k="v"}`},
		{"x", "", "ignored", "x"},
		{"esc", "k", `a"b\c`, `esc{k="a\"b\\c"}`},
	}
	for _, c := range cases {
		if got := WithLabel(c.name, c.key, c.value); got != c.want {
			t.Errorf("WithLabel(%q, %q, %q) = %q, want %q", c.name, c.key, c.value, got, c.want)
		}
	}
}

// TestSnapshotUnderConcurrentWrites is the race-detector stress test:
// snapshots, deltas and merges taken while writers hammer the registry
// must never race or produce impossible values (negative counters).
func TestSnapshotUnderConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("ops_total")
			g := r.Gauge("depth")
			h := r.Histogram("lat_ns")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i))
				h.Record(int64(i % 4096))
			}
		}(w)
	}
	fleet := NewRegistry()
	var prev Snapshot
	for i := 0; i < 200; i++ {
		cur := r.Snapshot()
		if n := cur.Counters["ops_total"]; n < prev.Counters["ops_total"] {
			t.Fatalf("counter went backwards: %d then %d", prev.Counters["ops_total"], n)
		}
		delta := cur.DeltaSince(prev)
		if d := delta.Counters["ops_total"]; d < 0 {
			t.Fatalf("negative counter delta %d", d)
		}
		fleet.Absorb(delta, "worker", "stress")
		prev = cur
	}
	close(stop)
	wg.Wait()
}
