package ssd

import (
	"math/rand"
	"testing"
	"time"

	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// mergeRequests is the materialized form of mergeStream. Returns the merged
// request stream and the number of merges performed.
func mergeRequests(reqs []trace.Request) ([]trace.Request, int64) {
	if len(reqs) == 0 {
		return reqs, 0
	}
	ms := newMergeStream((&trace.Trace{Requests: reqs}).Source())
	out := make([]trace.Request, 0, len(reqs))
	for {
		r, ok := ms.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, ms.merged
}

func TestMergeRequestsContiguous(t *testing.T) {
	reqs := []trace.Request{
		{Arrival: 0, LBA: 0, Sectors: 8, Op: trace.Write},
		{Arrival: 10 * time.Microsecond, LBA: 8, Sectors: 8, Op: trace.Write},
		{Arrival: 20 * time.Microsecond, LBA: 16, Sectors: 8, Op: trace.Write},
		{Arrival: 30 * time.Microsecond, LBA: 1000, Sectors: 8, Op: trace.Write}, // gap
	}
	out, merged := mergeRequests(reqs)
	if merged != 2 || len(out) != 2 {
		t.Fatalf("merged=%d len=%d, want 2/2", merged, len(out))
	}
	if out[0].Sectors != 24 || out[0].LBA != 0 {
		t.Fatalf("merged request wrong: %+v", out[0])
	}
}

func TestMergeRespectsOpAndWindowAndSize(t *testing.T) {
	// Different op: no merge.
	reqs := []trace.Request{
		{LBA: 0, Sectors: 8, Op: trace.Write},
		{LBA: 8, Sectors: 8, Op: trace.Read},
	}
	if _, merged := mergeRequests(reqs); merged != 0 {
		t.Fatal("merged across op boundary")
	}
	// Outside the plug window: no merge.
	reqs = []trace.Request{
		{Arrival: 0, LBA: 0, Sectors: 8, Op: trace.Read},
		{Arrival: time.Second, LBA: 8, Sectors: 8, Op: trace.Read},
	}
	if _, merged := mergeRequests(reqs); merged != 0 {
		t.Fatal("merged across a 1s gap")
	}
	// Size cap: 1MB.
	reqs = []trace.Request{
		{LBA: 0, Sectors: 2000, Op: trace.Read},
		{LBA: 2000, Sectors: 2000, Op: trace.Read},
	}
	if _, merged := mergeRequests(reqs); merged != 0 {
		t.Fatal("merged past the 1MB cap")
	}
	// Empty input.
	if out, merged := mergeRequests(nil); merged != 0 || len(out) != 0 {
		t.Fatal("empty input mishandled")
	}
}

func TestHostQueuesDepthGating(t *testing.T) {
	p := DefaultParams()
	p.QueueCount, p.QueueDepth = 1, 2
	h := newHostQueues(&p)
	d, c := h.admit(0)
	if d != 0 {
		t.Fatalf("first dispatch = %d", d)
	}
	h.complete(c, 100)
	d, c = h.admit(0)
	if d != 0 {
		t.Fatalf("second dispatch = %d (QD 2 allows it)", d)
	}
	h.complete(c, 200)
	// Third request reuses slot 0: gated on its completion (100).
	d, c = h.admit(0)
	if d != 100 {
		t.Fatalf("third dispatch = %d, want 100", d)
	}
	h.complete(c, 250)
	// Fourth reuses slot 1 (completion 200).
	d, _ = h.admit(0)
	if d != 200 {
		t.Fatalf("fourth dispatch = %d, want 200", d)
	}
}

func TestHostQueuesMultiQueueSteering(t *testing.T) {
	p := DefaultParams()
	p.QueueCount, p.QueueDepth = 2, 1
	h := newHostQueues(&p)
	d, c := h.admit(0)
	if d != 0 {
		t.Fatal("q0 should be free")
	}
	h.complete(c, 100)
	// Second request steers to the other (empty) queue.
	d, c = h.admit(0)
	if d != 0 {
		t.Fatalf("second dispatch = %d, want 0 via queue 1", d)
	}
	h.complete(c, 300)
	// Third picks the earliest-freeing slot: q0 at 100.
	d, _ = h.admit(0)
	if d != 100 {
		t.Fatalf("third dispatch = %d, want 100", d)
	}
}

func TestSATASingleQueue(t *testing.T) {
	p := DefaultParams()
	p.HostInterface = SATA
	p.QueueCount, p.QueueDepth = 8, 256
	h := newHostQueues(&p)
	if len(h.next) != 1 || h.depth != 32 || len(h.windows) != 32 {
		t.Fatalf("SATA should clamp to one 32-deep queue, got %dx%d (%d slots)", len(h.next), h.depth, len(h.windows))
	}
}

// refHostQueues is the modulo form of hostQueues: request j of queue q
// takes slot j mod QueueDepth of a per-queue window.
type refHostQueues struct {
	windows [][]int64 // [queue][slot] completion times
	counts  []int     // requests admitted per queue
}

func newRefHostQueues(h *hostQueues) *refHostQueues {
	r := &refHostQueues{windows: make([][]int64, len(h.next)), counts: make([]int, len(h.next))}
	for q := range r.windows {
		r.windows[q] = make([]int64, h.depth)
	}
	return r
}

func (r *refHostQueues) admit(arrival int64) (dispatch int64, q, slot int) {
	bestGate := int64(1 << 62)
	for i := range r.windows {
		s := r.counts[i] % len(r.windows[i])
		if gate := r.windows[i][s]; gate < bestGate {
			q, slot, bestGate = i, s, gate
		}
	}
	r.counts[q]++
	return max(arrival, bestGate), q, slot
}

// TestHostQueuesMatchModuloReference drives hostQueues and the modulo
// reference with the same seeded arrivals and completions, completing
// admitted requests out of order, and requires every dispatch time and
// slot to match.
func TestHostQueuesMatchModuloReference(t *testing.T) {
	for _, ifc := range []Interface{NVMe, SATA} {
		for _, qc := range []int{1, 2, 8, 16} {
			for _, qd := range []int{1, 2, 32, 256} {
				p := DefaultParams()
				p.HostInterface, p.QueueCount, p.QueueDepth = ifc, qc, qd
				h := newHostQueues(&p)
				ref := newRefHostQueues(h)
				rng := rand.New(rand.NewSource(int64(qc*1000 + qd)))
				type pending struct {
					s       hostSlot
					q, slot int
				}
				var open []pending
				arrival := int64(0)
				for step := 0; step < 20000; step++ {
					if len(open) > 0 && rng.Intn(3) > 0 {
						i := rng.Intn(len(open))
						done := arrival + rng.Int63n(50_000)
						h.complete(open[i].s, done)
						ref.windows[open[i].q][open[i].slot] = done
						open[i] = open[len(open)-1]
						open = open[:len(open)-1]
						continue
					}
					arrival += rng.Int63n(2_000)
					d, s := h.admit(arrival)
					wd, q, slot := ref.admit(arrival)
					if d != wd || int(s) != q*h.depth+slot {
						t.Fatalf("%v %dx%d step %d: admit = (%d, slot %d), reference (%d, queue %d slot %d)",
							ifc, qc, qd, step, d, s, wd, q, slot)
					}
					open = append(open, pending{s, q, slot})
				}
			}
		}
	}
}

func TestQueueCountLiftsSaturatedThroughput(t *testing.T) {
	tr := testTrace(workload.Database, 8000)
	one := DefaultParams()
	one.QueueCount = 1
	many := DefaultParams()
	many.QueueCount = 8
	r1 := runTrace(t, one, tr)
	r8 := runTrace(t, many, tr)
	if r8.ThroughputBps <= r1.ThroughputBps {
		t.Fatalf("8 queues (%g Bps) should beat 1 queue (%g Bps) under saturation",
			r8.ThroughputBps, r1.ThroughputBps)
	}
}

func TestMergingHelpsSequentialWorkload(t *testing.T) {
	tr := testTrace(workload.CloudStorage, 5000)
	on := DefaultParams()
	on.IOMergingEnabled = true
	off := DefaultParams()
	off.IOMergingEnabled = false
	rOn := runTrace(t, on, tr)
	rOff := runTrace(t, off, tr)
	if rOn.MergedRequests == 0 {
		t.Fatal("sequential workload should produce merges")
	}
	if rOff.MergedRequests != 0 {
		t.Fatal("merging disabled but merges recorded")
	}
	// Throughput must not regress from merging.
	if rOn.ThroughputBps < rOff.ThroughputBps*0.95 {
		t.Fatalf("merging regressed throughput: %g vs %g", rOn.ThroughputBps, rOff.ThroughputBps)
	}
}

func TestOOOSchedulingBoundsReadWaits(t *testing.T) {
	// Write-heavy + reads: OOO lets reads bypass queued programs.
	tr := testTrace(workload.FIU, 12000)
	p := smallDevice()
	p.SuspendEnabled = false
	fifo := p
	fifo.TransactionSchedOOO = false
	ooo := p
	ooo.TransactionSchedOOO = true
	rFifo := runTrace(t, fifo, tr)
	rOoo := runTrace(t, ooo, tr)
	if rOoo.AvgLatency > rFifo.AvgLatency {
		t.Fatalf("OOO latency %v should not exceed FIFO %v", rOoo.AvgLatency, rFifo.AvgLatency)
	}
}

func TestProactiveFlushTriggers(t *testing.T) {
	p := smallDevice()
	p.WriteBufferFlushPct = 10 // flush aggressively
	tr := testTrace(workload.FIU, 8000)
	res := runTrace(t, p, tr)
	if res.ProactiveFlushes == 0 {
		t.Fatal("aggressive flush threshold produced no proactive flushes")
	}
	lazy := smallDevice()
	lazy.WriteBufferFlushPct = 99.9
	resLazy := runTrace(t, lazy, tr)
	if resLazy.ProactiveFlushes >= res.ProactiveFlushes {
		t.Fatalf("lazy threshold should flush less: %d vs %d",
			resLazy.ProactiveFlushes, res.ProactiveFlushes)
	}
}

func TestDynamicWearLevelingEvensWear(t *testing.T) {
	tr := testTrace(workload.FIU, 25000)
	on := smallDevice()
	on.DynamicWearLeveling = true
	on.StaticWearLeveling = false
	off := smallDevice()
	off.DynamicWearLeveling = false
	off.StaticWearLeveling = false
	rOn := runTrace(t, on, tr)
	rOff := runTrace(t, off, tr)
	// Both must run GC for the comparison to mean anything.
	if rOn.GCRuns == 0 || rOff.GCRuns == 0 {
		t.Skip("no GC pressure")
	}
	// Dynamic WL selects cooler victims; the performance effect is small
	// but it must not break anything.
	if rOn.AvgLatency <= 0 || rOff.AvgLatency <= 0 {
		t.Fatal("bad latencies")
	}
}

func TestHostLinkBandwidthConserved(t *testing.T) {
	// Aggregate measured throughput can never exceed the host link's
	// bandwidth, no matter how parallel the flash back-end is.
	tr := testTrace(workload.HDFS, 6000) // large sequential, link-saturating
	p := DefaultParams()
	p.Channels = 32
	p.PCIeLanes = 1 // 985 MB/s link
	res := runTrace(t, p, tr)
	if res.ThroughputBps > p.HostBandwidthBps()*1.02 {
		t.Fatalf("throughput %g exceeds host link %g", res.ThroughputBps, p.HostBandwidthBps())
	}
}

func TestEnergyComponentsOrdering(t *testing.T) {
	// A flash-heavy run must cost more energy than the same device idle
	// over the same span (background power only).
	tr := testTrace(workload.CloudStorage, 4000)
	res := runTrace(t, DefaultParams(), tr)
	// Rough background-only bound: DRAM + controller idle + flash standby.
	seconds := res.Makespan.Seconds()
	dramGB := float64(DefaultParams().DataCacheBytes+DefaultParams().CMTBytes) / (1 << 30)
	backgroundJ := dramGB*0.18*seconds + 0.09*seconds + 0.0008*float64(8*4*2)*seconds
	if res.EnergyJoules <= backgroundJ {
		t.Fatalf("active run energy %g should exceed background-only %g", res.EnergyJoules, backgroundJ)
	}
}
