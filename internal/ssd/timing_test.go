package ssd

import (
	"testing"
	"time"

	"autoblox/internal/trace"
)

// The tests below run one or two requests on an idle, unfolded device
// and check their latencies against sums of per-operation costs derived
// from DeviceParams alone, never from engine fields. Between them they
// pin every resource timeline a request waits on: the plane, the
// channel bus, the host link and the ZNS zone append point.

// timingDevice is smallDevice (capScale 1) with nothing that would add
// work to a lone request: no merging, no suspension and no faults. A
// 16-lane link makes a page's host transfer shorter than a DRAM pass, so
// back-to-back completions do not queue on the host link.
func timingDevice() DeviceParams {
	p := smallDevice()
	p.IOMergingEnabled = false
	p.SuspendEnabled = false
	p.Faults = FaultProfile{}
	p.PCIeLanes = 16
	return p
}

// opCosts are one page's per-operation times (ns).
type opCosts struct {
	cmd, fw, tR, tProg, xfer, ecc, dram, host int64
}

func costsOf(p DeviceParams) opCosts {
	page := float64(p.PageSizeBytes)
	dramBps := float64(p.DRAMMHz) * 1e6 * float64(p.DRAMBusBits) / 8 * 2 // DDR
	return opCosts{
		// NVMe: 8 µs of command overhead split over the queues, at least 1 µs.
		cmd:   max(8_000/int64(p.QueueCount), 1_000),
		fw:    p.FirmwareOverhead.Nanoseconds(),
		tR:    p.ReadLatency.Nanoseconds(),
		tProg: p.ProgramLatency.Nanoseconds(),
		xfer:  int64(page / p.ChannelBandwidthBps() * 1e9),
		ecc:   p.ECCLatency.Nanoseconds(),
		dram:  int64(page/dramBps*1e9) + 300, // + access latency
		host:  int64(page / p.HostBandwidthBps() * 1e9),
	}
}

func (c opCosts) read() int64  { return c.cmd + c.fw + c.tR + c.xfer + c.ecc + c.host }
func (c opCosts) write() int64 { return c.cmd + c.fw + c.dram + c.host }

// timingRun simulates one request per logical page in lps, all arriving
// together, and returns the Result.
func timingRun(t *testing.T, p DeviceParams, op trace.Op, lps ...int64) *Result {
	t.Helper()
	spp := uint64(p.PageSizeBytes / 512)
	var reqs []trace.Request
	for _, lp := range lps {
		reqs = append(reqs, trace.Request{
			Arrival: time.Millisecond, LBA: uint64(lp) * spp, Sectors: uint32(spp), Op: op,
		})
	}
	res := runTrace(t, p, &trace.Trace{Name: "timing", Requests: reqs})
	if res.Requests != len(lps) {
		t.Fatalf("Requests = %d, want %d", res.Requests, len(lps))
	}
	return res
}

// pagePair returns logical page 0 and the first other page whose read
// goes to a plane for which pick(plane of page 0, its plane) holds.
func pagePair(t *testing.T, p DeviceParams, pick func(f *ftl, a, b planeID) bool) (int64, int64) {
	t.Helper()
	probe, err := newEngine(&p)
	if err != nil {
		t.Fatal(err)
	}
	f := probe.ftl
	if f.capScale != 1 {
		t.Fatalf("capScale = %d, want an unfolded device", f.capScale)
	}
	for lp := int64(1); lp < f.logicalPages; lp++ {
		if pick(f, f.lookup(0), f.lookup(lp)) {
			return 0, lp
		}
	}
	t.Fatal("no page pair with the wanted placement")
	return 0, 0
}

// assertPair checks two requests that arrived together: the first
// finishes after lat, the second gap later.
func assertPair(t *testing.T, res *Result, lat, gap int64) {
	t.Helper()
	if got, want := res.Makespan, time.Duration(lat+gap); got != want {
		t.Errorf("second completion %d ns after arrival, want %d", got, want)
	}
	if got, want := res.AvgLatency, time.Duration((2*lat+gap)/2); got != want {
		t.Errorf("AvgLatency = %d ns, want %d", got, want)
	}
}

func TestLoneReadClosedForm(t *testing.T) {
	p := timingDevice()
	c := costsOf(p)
	res := timingRun(t, p, trace.Read, 0)
	if want := time.Duration(c.read()); res.AvgLatency != want || res.Makespan != want {
		t.Fatalf("lone read: latency %d, makespan %d ns; want cmd %d + fw %d + tR %d + xfer %d + ECC %d + host %d = %d",
			res.AvgLatency, res.Makespan, c.cmd, c.fw, c.tR, c.xfer, c.ecc, c.host, want)
	}
	if res.UserReads != 1 || res.CMTMisses != 0 || res.CacheHits != 0 {
		t.Fatalf("lone read took another path: %+v", res.Counters)
	}
}

func TestLoneWriteClosedForm(t *testing.T) {
	p := timingDevice()
	c := costsOf(p)
	res := timingRun(t, p, trace.Write, 0)
	if want := time.Duration(c.write()); res.AvgLatency != want || res.Makespan != want {
		t.Fatalf("lone write: latency %d, makespan %d ns; want cmd %d + fw %d + DRAM %d + host %d = %d",
			res.AvgLatency, res.Makespan, c.cmd, c.fw, c.dram, c.host, want)
	}
}

// TestReadsOnOnePlaneFinishTRApart: the second read's cell work waits
// for the first's, and nothing after it waits again.
func TestReadsOnOnePlaneFinishTRApart(t *testing.T) {
	p := timingDevice()
	c := costsOf(p)
	if c.xfer > c.tR || c.host > c.tR || c.tR > c.tProg {
		t.Fatalf("device must have xfer, host ≤ tR ≤ tProg: %+v", c)
	}
	a, b := pagePair(t, p, func(_ *ftl, x, y planeID) bool { return x == y })
	assertPair(t, timingRun(t, p, trace.Read, a, b), c.read(), c.tR)
}

// TestReadsOnOneChannelFinishOneTransferApart: two planes sense in
// parallel, then the second transfer waits for the first on the bus.
func TestReadsOnOneChannelFinishOneTransferApart(t *testing.T) {
	p := timingDevice()
	c := costsOf(p)
	if c.host > c.xfer {
		t.Fatalf("device must have host ≤ xfer: %+v", c)
	}
	a, b := pagePair(t, p, func(f *ftl, x, y planeID) bool {
		return x != y && f.alloc.channelOf(x) == f.alloc.channelOf(y)
	})
	assertPair(t, timingRun(t, p, trace.Read, a, b), c.read(), c.xfer)
}

// TestWritesOverOneHostLinkFinishOneHostTransferApart: two writes end
// their DRAM passes together, then their payloads cross the host link
// one after the other.
func TestWritesOverOneHostLinkFinishOneHostTransferApart(t *testing.T) {
	p := timingDevice()
	p.PCIeLanes = 1
	c := costsOf(p)
	res := timingRun(t, p, trace.Write, 0, 1)
	assertPair(t, res, c.write(), c.host)
}

// TestZNSWritesInOneZoneFinishOneDRAMPassApart: appends to one zone go
// through its append point one DRAM pass at a time.
func TestZNSWritesInOneZoneFinishOneDRAMPassApart(t *testing.T) {
	p := timingDevice()
	p.HostIfcModel = IfcZNS
	p.ZoneSizeMB = 1
	c := costsOf(p)
	if c.host > c.dram {
		t.Fatalf("device must have host ≤ DRAM pass: %+v", c)
	}
	res := timingRun(t, p, trace.Write, 0, 1)
	assertPair(t, res, c.write(), c.dram)
	if res.WPViolations != 0 {
		t.Fatalf("sequential appends violated the write pointer %d times", res.WPViolations)
	}
}
