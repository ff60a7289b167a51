package ssd

import (
	"context"
	"strings"
	"testing"
	"time"

	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

func TestHostIfcRegistry(t *testing.T) {
	names := hostIfcs.allNames()
	want := []string{"conventional", "zns", "multistream"}
	if len(names) != len(want) {
		t.Fatalf("host_ifc names = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("host_ifc name %d = %q, want %q", i, names[i], n)
		}
		got, err := ParseHostIfc(n)
		if err != nil {
			t.Fatalf("ParseHostIfc(%q): %v", n, err)
		}
		if got != HostIfc(i) || got.String() != n {
			t.Fatalf("ParseHostIfc(%q) = %d (%q), want %d", n, got, got.String(), i)
		}
	}
	if _, err := ParseHostIfc("open-channel"); err == nil {
		t.Fatal("ParseHostIfc accepted an unknown model")
	}
	if help := DescribeFields(); !strings.Contains(help, "host_ifc: conventional (") {
		t.Fatalf("DescribeFields() does not describe host_ifc:\n%s", help)
	}
}

func TestLaneCount(t *testing.T) {
	p := DefaultParams()
	p.WriteStreams, p.MaxOpenZones = 4, 8
	cases := []struct {
		model HostIfc
		bpp   int32
		want  int
	}{
		{IfcConventional, 64, 1},
		{IfcMultiStream, 64, 4},
		{IfcZNS, 64, 8},
		{IfcZNS, 16, 4},        // clamped to bpp/4
		{IfcMultiStream, 4, 1}, // never below one lane
	}
	for _, c := range cases {
		p.HostIfcModel = c.model
		if got := laneCount(&p, c.bpp); got != c.want {
			t.Fatalf("laneCount(%s, bpp=%d) = %d, want %d", c.model, c.bpp, got, c.want)
		}
	}
}

// testZNSState builds a znsState directly (bypassing device geometry)
// so write-pointer transitions can be tested exhaustively.
func testZNSState(zones int, zonePages int64, slots int) *znsState {
	z := &znsState{
		zonePages:  zonePages,
		wp:         make([]int64, zones),
		slotOfZone: make([]int16, zones),
		zoneOfSlot: make([]int64, slots),
		c:          new(Counters),
	}
	for i := range z.slotOfZone {
		z.slotOfZone[i] = -1
	}
	for i := range z.zoneOfSlot {
		z.zoneOfSlot[i] = -1
	}
	return z
}

func TestZNSWritePointer(t *testing.T) {
	z := testZNSState(4, 8, 2)
	for lp := int64(0); lp < 8; lp++ {
		if z.noteWrite(lp) {
			t.Fatalf("sequential append at lp %d flagged as violation", lp)
		}
	}
	if z.wp[0] != 8 {
		t.Fatalf("wp[0] = %d after filling zone 0, want 8", z.wp[0])
	}
	if z.noteWrite(7) {
		t.Fatal("frontier rewrite (wp-1) must be tolerated, capScale folds neighbors onto it")
	}
	if z.noteWrite(3) != true || z.c.WPViolations != 1 {
		t.Fatalf("rewrite below wp-1 must count one violation, got %d", z.c.WPViolations)
	}
	if z.wp[0] != 8 {
		t.Fatalf("violating write moved wp[0] to %d", z.wp[0])
	}
	// capScale folding may skip pages forward: an append past the
	// pointer is legal and advances it to just past the write.
	if z.noteWrite(8+3) || z.wp[1] != 4 {
		t.Fatalf("skip-forward append: violations=%d wp[1]=%d, want 0 and 4", z.c.WPViolations-1, z.wp[1])
	}

	// Full-zone trim is a zone reset; a partial trim is not.
	z.noteTrim(0, 8)
	if z.wp[0] != 0 || z.c.ZoneResets != 1 {
		t.Fatalf("full-zone trim: wp[0]=%d resets=%d, want 0 and 1", z.wp[0], z.c.ZoneResets)
	}
	z.noteTrim(8, 4)
	if z.wp[1] != 4 || z.c.ZoneResets != 1 {
		t.Fatalf("partial trim must not reset: wp[1]=%d resets=%d", z.wp[1], z.c.ZoneResets)
	}

	z.slotFor(0)
	z.reset()
	if z.wp[1] != 0 {
		t.Fatalf("reset left wp[1]=%d", z.wp[1])
	}
	if z.slotOfZone[0] < 0 {
		t.Fatal("reset must keep slot assignments (placement state)")
	}
}

func TestZNSSlotRecyclingFIFO(t *testing.T) {
	z := testZNSState(4, 8, 2)
	if s := z.slotFor(0); s != 0 {
		t.Fatalf("first open got slot %d, want 0", s)
	}
	if s := z.slotFor(1); s != 1 {
		t.Fatalf("second open got slot %d, want 1", s)
	}
	if s := z.slotFor(2); s != 0 {
		t.Fatalf("third open should recycle slot 0, got %d", s)
	}
	if z.slotOfZone[0] != -1 {
		t.Fatal("recycling slot 0 must close its previous tenant (zone 0)")
	}
	if s := z.slotFor(0); s != 1 {
		t.Fatalf("reopening zone 0 should take slot 1, got %d", s)
	}
	if s := z.slotFor(2); s != 0 {
		t.Fatalf("zone 2 is still open on slot 0, got %d", s)
	}
}

// auditZones checks ZNS bookkeeping invariants: write pointers within
// zone bounds and the open-slot table being a consistent partial
// bijection. No-op for other interface models.
func auditZones(t *testing.T, label string, f *ftl) {
	t.Helper()
	z := f.zns
	if z == nil {
		return
	}
	if z.zonePages < int64(f.pagesPerBlock) {
		t.Fatalf("%s: zonePages %d below erase-block size %d", label, z.zonePages, f.pagesPerBlock)
	}
	for zi, wp := range z.wp {
		if wp < 0 || wp > z.zonePages {
			t.Fatalf("%s: zone %d write pointer %d out of [0, %d]", label, zi, wp, z.zonePages)
		}
	}
	for s, zone := range z.zoneOfSlot {
		if zone >= 0 && z.slotOfZone[zone] != int16(s) {
			t.Fatalf("%s: slot %d claims zone %d but zone maps to slot %d", label, s, zone, z.slotOfZone[zone])
		}
	}
	for zone, s := range z.slotOfZone {
		if s >= 0 && z.zoneOfSlot[s] != int64(zone) {
			t.Fatalf("%s: zone %d claims slot %d but slot holds zone %d", label, zone, s, z.zoneOfSlot[s])
		}
	}
}

// auditStreamIsolation verifies the multi-stream placement guarantee:
// every live flash page sits in a block of its stream's lane. A
// mismatch is legal only while a newer copy of the page is still in the
// data cache — the flash copy predates a stream retag and dies at the
// pending flush. No-op for other interface models.
func auditStreamIsolation(t *testing.T, label string, e *engine) {
	t.Helper()
	f := e.ftl
	if f.streamOf == nil {
		return
	}
	for pi := range f.planes {
		fp := &f.planes[pi]
		for bi := range fp.blocks {
			blk := &fp.blocks[bi]
			for slot := int32(0); slot < blk.writePtr; slot++ {
				lp := slotLive(f, planeID(pi), int32(bi), slot)
				if lp < 0 {
					continue
				}
				want := int32(int(f.streamOf[lp]) % f.lanes)
				if want == blk.lane {
					continue
				}
				if e.cache.contains(int64(lp)) {
					continue
				}
				t.Fatalf("%s: lp %d (stream %d, lane %d) live in plane %d block %d of lane %d",
					label, lp, f.streamOf[lp], want, pi, bi, blk.lane)
			}
		}
	}
}

func TestMultiStreamIsolation(t *testing.T) {
	p := smallDevice()
	p.HostIfcModel = IfcMultiStream
	p.WriteStreams = 4
	tr := workload.MustGenerate(workload.FIU,
		workload.Options{Requests: 8000, Seed: 5, Streams: 4, TrimRatio: 0.05})
	eng, err := newEngine(&p)
	if err != nil {
		t.Fatal(err)
	}
	if eng.ftl.lanes != 4 {
		t.Fatalf("multi-stream device has %d lanes, want 4", eng.ftl.lanes)
	}
	src := tr.Source()
	if _, err := eng.warmup(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	src.Reset()
	if _, err := eng.run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	auditFTL(t, "multistream", eng.ftl)
	auditStreamIsolation(t, "multistream", eng)
	lanesUsed := make(map[int32]bool)
	for pi := range eng.ftl.planes {
		fp := &eng.ftl.planes[pi]
		for bi := range fp.blocks {
			if fp.blocks[bi].valid > 0 {
				lanesUsed[fp.blocks[bi].lane] = true
			}
		}
	}
	if len(lanesUsed) < 2 {
		t.Fatalf("tagged workload used %d lanes, want several", len(lanesUsed))
	}
}

// znsScript is a ZNS device and a hand-built trace for it: a full
// sequential fill of zone 0 (clean appends), one rewrite below the zone
// write pointer (a violation), a full-zone TRIM (a zone reset) and a
// clean append after it.
func znsScript(t *testing.T) (DeviceParams, *trace.Trace) {
	t.Helper()
	p := smallDevice()
	p.HostIfcModel = IfcZNS
	p.ZoneSizeMB = 1 // many zones on the small test device
	probe, err := newEngine(&p)
	if err != nil {
		t.Fatal(err)
	}
	z := probe.ftl.zns
	spp := probe.ftl.sectorsPerPage
	scale := probe.ftl.capScale
	step := uint64(spp * scale) // LBA stride between folded pages
	zp := z.zonePages
	if zp >= probe.ftl.logicalPages {
		t.Fatalf("zone (%d pages) should be smaller than the device (%d pages)", zp, probe.ftl.logicalPages)
	}

	var reqs []trace.Request
	add := func(op trace.Op, lp int64, sectors uint32) {
		reqs = append(reqs, trace.Request{
			Arrival: time.Duration(len(reqs)) * time.Microsecond,
			LBA:     uint64(lp) * step, Sectors: sectors, Op: op,
		})
	}
	for lp := int64(0); lp < zp; lp++ {
		add(trace.Write, lp, uint32(spp))
	}
	add(trace.Write, 2, uint32(spp))            // below wp: violation
	add(trace.Trim, 0, uint32(uint64(zp)*step)) // covers zone 0: reset
	add(trace.Write, 0, uint32(spp))            // clean append after reset
	return p, &trace.Trace{Name: "zns-script", Requests: reqs}
}

// TestZNSSimViolationsAndResets drives a ZNS device with znsScript. The
// Result counters must see exactly its events.
func TestZNSSimViolationsAndResets(t *testing.T) {
	p, tr := znsScript(t)
	res := runTrace(t, p, tr)
	if res.WPViolations != 1 {
		t.Fatalf("WPViolations = %d, want 1", res.WPViolations)
	}
	if res.ZoneResets != 1 {
		t.Fatalf("ZoneResets = %d, want 1", res.ZoneResets)
	}
	if res.UserTrims != 1 {
		t.Fatalf("UserTrims = %d, want 1", res.UserTrims)
	}
	if res.TrimmedPages == 0 {
		t.Fatal("full-zone TRIM invalidated no pages")
	}
}

func TestTrimAccountingConventional(t *testing.T) {
	p := smallDevice()
	tr := workload.MustGenerate(workload.FIU,
		workload.Options{Requests: 6000, Seed: 9, TrimRatio: 0.2})
	res := runTrace(t, p, tr)
	if res.UserTrims == 0 {
		t.Fatal("trim-heavy workload produced no UserTrims")
	}
	if res.TrimmedPages == 0 {
		t.Fatal("trims invalidated no mapped pages")
	}
	if res.WPViolations != 0 || res.ZoneResets != 0 {
		t.Fatalf("conventional device reported ZNS counters: %d violations, %d resets",
			res.WPViolations, res.ZoneResets)
	}
}

func benchSimIfc(b *testing.B, model HostIfc) {
	p := DefaultParams()
	p.HostIfcModel = model
	sim, err := NewSimulator(p)
	if err != nil {
		b.Fatal(err)
	}
	opt := workload.Options{Requests: 50_000, Seed: 11, TrimRatio: 0.05, Streams: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunSource(workload.MustSource(workload.Database, opt)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimZNS(b *testing.B)         { benchSimIfc(b, IfcZNS) }
func BenchmarkSimMultiStream(b *testing.B) { benchSimIfc(b, IfcMultiStream) }
