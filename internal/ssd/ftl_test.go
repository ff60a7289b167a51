package ssd

import (
	"math/rand"
	"testing"

	"autoblox/internal/workload"
)

func newTestFTL(t *testing.T, mutate func(*DeviceParams)) *ftl {
	t.Helper()
	p := smallDevice()
	if mutate != nil {
		mutate(&p)
	}
	f, err := newFTL(&p, new(Counters))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPPARoundTrip round-trips random and corner (plane, block, slot)
// triples through each reference device's packed-address layout and
// checks that no real address packs to unmapped.
func TestPPARoundTrip(t *testing.T) {
	for name, p := range map[string]DeviceParams{
		"default": DefaultParams(), "intel750": Intel750(),
		"samsung850pro": Samsung850Pro(), "samsungzssd": SamsungZSSD(),
	} {
		planes := p.TotalPlanes()
		bpp, ppb := scaleGeometry(&p, planes)
		l, err := newPPALayout(planes, bpp, ppb)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check := func(plane planeID, block, slot int32) {
			v := l.packPPA(plane, block, slot)
			if v == unmapped {
				t.Fatalf("%s: (%d, %d, %d) packs to unmapped", name, plane, block, slot)
			}
			if gp, gb, gs := l.unpackPPA(v); gp != plane || gb != block || gs != slot {
				t.Fatalf("%s: (%d, %d, %d) round-trips to (%d, %d, %d)", name, plane, block, slot, gp, gb, gs)
			}
		}
		maxPlane, maxBlock, maxSlot := planeID(planes-1), bpp-1, ppb-1
		for _, pl := range []planeID{0, maxPlane} {
			for _, b := range []int32{0, maxBlock} {
				for _, s := range []int32{0, maxSlot} {
					check(pl, b, s)
				}
			}
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 10000; i++ {
			check(planeID(rng.Intn(planes)), rng.Int31n(bpp), rng.Int31n(ppb))
		}
	}
}

func TestPlacePageInvalidatesOldCopy(t *testing.T) {
	f := newTestFTL(t, nil)
	f.prefill(0.5)
	period := int64(len(f.stripePlane))
	// prefilled-period sits in the block the prefill left open on the
	// plane the first write goes to, so its overwrite builds that block's
	// pages array after invalidating the old copy. 42 is prefilled too,
	// in a full block that stays without a pages array. The last page is
	// above the prefill, so its first copy is written.
	last := f.logicalPages - 1
	for _, lp := range []int64{f.prefilled - period, 42, last} {
		if lp == last {
			f.placePage(lp, 0)
		}
		old := f.resolve(lp)
		opl, ob, oslot := f.unpackPPA(old)
		if got := slotLive(f, opl, ob, oslot); got != int32(lp) {
			t.Fatalf("lp %d: slot its mapping points at holds live lp %d", lp, got)
		}
		// Overwrite: old slot becomes stale, valid count drops unless
		// the new copy lands in the same block.
		before := f.planes[opl].blocks[ob].valid
		pl, _, _ := f.placePage(lp, 0)
		if pl != f.lookup(lp) {
			t.Fatalf("lp %d: mapping does not match returned plane", lp)
		}
		want := before - 1
		if npl, nb, _ := f.unpackPPA(f.resolve(lp)); npl == opl && nb == ob {
			want++
		}
		if slotLive(f, opl, ob, oslot) != -1 {
			t.Fatalf("lp %d: old slot not invalidated", lp)
		}
		if after := f.planes[opl].blocks[ob].valid; after != want {
			t.Fatalf("lp %d: valid count %d -> %d, want %d", lp, before, after, want)
		}
	}
	if f.planes[0].blocks[0].pages != nil {
		t.Fatal("invalidating a prefilled page built its block's pages array")
	}
}

// logicalPage folds an LBA (in sectors) onto the simulated logical
// space: the real logical page index is divided by capScale (a linear
// shrink that keeps the workload's footprint the same *fraction* of the
// device and preserves hot/cold structure), then wrapped defensively.
func (f *ftl) logicalPage(lba uint64) int64 {
	return (int64(lba/uint64(f.sectorsPerPage)) / f.capScale) % f.logicalPages
}

func TestLogicalSpaceBounds(t *testing.T) {
	f := newTestFTL(t, nil)
	// Any LBA folds into [0, logicalPages).
	for _, lba := range []uint64{0, 1, 1 << 20, 1 << 40, ^uint64(0) >> 1} {
		lp := f.logicalPage(lba)
		if lp < 0 || lp >= f.logicalPages {
			t.Fatalf("logicalPage(%d) = %d outside [0,%d)", lba, lp, f.logicalPages)
		}
	}
}

func TestValidCountsConsistentUnderChurn(t *testing.T) {
	f := newTestFTL(t, nil)
	f.prefill(0.5)
	// Hammer a small working set, half of it prefilled, so GC churns
	// over implicit and written blocks alike, then audit invariants.
	ws, base := f.logicalPages/2, f.logicalPages/4
	for i := int64(0); i < ws*6; i++ {
		f.placePage(base+i%ws, 0)
	}
	if f.c.Erases == 0 {
		t.Fatal("churn of 3x logical space should trigger erases")
	}
	auditFTL(t, "churn", f)
}

func TestGreedyVsFIFOWriteAmplification(t *testing.T) {
	// Greedy GC picks minimum-valid victims, so its write amplification
	// must not exceed FIFO's on a skewed workload.
	tr := testTrace(workload.FIU, 20000)
	greedy := smallDevice()
	greedy.GCPolicy = GCGreedy
	fifo := smallDevice()
	fifo.GCPolicy = GCFIFO
	rg := runTrace(t, greedy, tr)
	rf := runTrace(t, fifo, tr)
	if rg.GCRuns == 0 || rf.GCRuns == 0 {
		t.Skip("no GC pressure")
	}
	if rg.WriteAmplification > rf.WriteAmplification*1.05 {
		t.Fatalf("greedy WA %.3f should not exceed FIFO WA %.3f", rg.WriteAmplification, rf.WriteAmplification)
	}
}

func TestOverprovisioningReducesWA(t *testing.T) {
	tr := testTrace(workload.FIU, 20000)
	lowOP := smallDevice()
	lowOP.OverprovisionRatio = 0.05
	highOP := smallDevice()
	highOP.OverprovisionRatio = 0.28
	rl := runTrace(t, lowOP, tr)
	rh := runTrace(t, highOP, tr)
	if rl.GCRuns == 0 {
		t.Skip("no GC pressure")
	}
	if rh.WriteAmplification > rl.WriteAmplification {
		t.Fatalf("28%% OP WA %.3f should not exceed 5%% OP WA %.3f",
			rh.WriteAmplification, rl.WriteAmplification)
	}
}

func TestCMTGranularityTradeoff(t *testing.T) {
	// Coarser mapping granularity covers more pages per entry: fewer
	// misses for a sequential-leaning workload.
	tr := testTrace(workload.LevelDB, 8000)
	fine := DefaultParams()
	fine.CMTBytes = 64 << 10
	fine.MappingGranularity = 1
	coarse := DefaultParams()
	coarse.CMTBytes = 64 << 10
	coarse.MappingGranularity = 8
	rf := runTrace(t, fine, tr)
	rc := runTrace(t, coarse, tr)
	if rc.MappingReads > rf.MappingReads {
		t.Fatalf("granularity 8 mapping reads %d should not exceed granularity 1's %d",
			rc.MappingReads, rf.MappingReads)
	}
}

func TestCachePoliciesAllWork(t *testing.T) {
	tr := testTrace(workload.VDI, 5000)
	// Iterate the registry, not a literal list, so a newly registered
	// policy is exercised automatically.
	for i := range cachePolicies.allNames() {
		pol := CachePolicy(i)
		p := DefaultParams()
		p.CachePolicy = pol
		res := runTrace(t, p, tr)
		if res.AvgLatency <= 0 || res.CacheHits <= 0 {
			t.Fatalf("policy %s produced bad results", pol)
		}
	}
}

func TestAllocSchemesAllSimulate(t *testing.T) {
	tr := testTrace(workload.Database, 2000)
	for scheme := 0; scheme < NumAllocSchemes; scheme++ {
		p := DefaultParams()
		p.PlaneAllocScheme = AllocScheme(scheme)
		res := runTrace(t, p, tr)
		if res.AvgLatency <= 0 {
			t.Fatalf("scheme %s produced bad results", AllocScheme(scheme))
		}
	}
}

func TestChannelFirstBeatsPlaneFirstForParallelWrites(t *testing.T) {
	// Channel-first striping (CWDP) spreads consecutive writes across
	// buses; plane-first (WPDC-like orders starting within one chip
	// region) serializes them. Compare a write-heavy sequential stream.
	tr := testTrace(workload.CloudStorage, 4000)
	cwdp := DefaultParams()
	cwdp.PlaneAllocScheme = AllocCWDP
	wpdc := DefaultParams()
	wpdc.PlaneAllocScheme = AllocWPDC
	rc := runTrace(t, cwdp, tr)
	rw := runTrace(t, wpdc, tr)
	// CWDP must not lose on throughput (it can tie if the bus is idle).
	if rc.ThroughputBps < rw.ThroughputBps*0.98 {
		t.Fatalf("CWDP throughput %g lost to WPDC %g", rc.ThroughputBps, rw.ThroughputBps)
	}
}

func TestWearReport(t *testing.T) {
	tr := testTrace(workload.FIU, 25000)
	p := smallDevice()
	res := runTrace(t, p, tr)
	w := res.Wear
	if w.PECycleLimit != peCycleLimit(p.FlashType) {
		t.Fatalf("PE limit %d", w.PECycleLimit)
	}
	if res.Erases > 0 {
		if w.MaxEraseCount <= 0 || w.MeanEraseCount <= 0 {
			t.Fatalf("erases happened but wear empty: %+v", w)
		}
		if w.Imbalance < 1 {
			t.Fatalf("imbalance %g < 1", w.Imbalance)
		}
		if w.ProjectedLifetime <= 0 {
			t.Fatalf("no projected lifetime despite erases")
		}
	}
	// Static wear leveling should not worsen the imbalance.
	noWL := p
	noWL.StaticWearLeveling = false
	noWL.DynamicWearLeveling = false
	rNo := runTrace(t, noWL, tr)
	if rNo.Erases == 0 || res.Erases == 0 {
		t.Skip("no GC pressure")
	}
	if res.Wear.Imbalance > rNo.Wear.Imbalance*1.25 {
		t.Fatalf("wear leveling imbalance %.2f much worse than none %.2f",
			res.Wear.Imbalance, rNo.Wear.Imbalance)
	}
}

func TestPECycleLimitsOrdered(t *testing.T) {
	if !(peCycleLimit(SLC) > peCycleLimit(MLC) && peCycleLimit(MLC) > peCycleLimit(TLC)) {
		t.Fatal("PE cycle limits must be SLC > MLC > TLC")
	}
}

// TestCMTMissAtCapacityAllocatesNothing: a miss on the CMT's full
// dataCache recycles the evicted entry, so steady-state misses allocate
// nothing, and each eviction still reports the dirtiness of the least
// recently used region. Hits and invalidates allocate nothing either,
// under every replacement policy.
func TestCMTMissAtCapacityAllocatesNothing(t *testing.T) {
	p := DefaultParams()
	p.CMTBytes = 64 * int64(p.CMTEntryBytes)
	c := newCMT(&p, 1)
	if c.capacity != 64 {
		t.Fatalf("capacity %d, want 64", c.capacity)
	}
	for r := int64(0); r < 64; r++ {
		c.insert(r, r%2 == 0)
	}
	// Regions 0..63 are evicted in order; the even ones were written.
	for r := int64(64); r < 128; r++ {
		evicted, dirty, hit := c.insert(r, false)
		if hit || dirty != (r%2 == 0) || (dirty && evicted != r-64) {
			t.Fatalf("insert(%d) = hit %v, dirty eviction %v of %d", r, hit, dirty, evicted)
		}
	}
	r := int64(128)
	if n := testing.AllocsPerRun(1000, func() { c.insert(r, true); r++ }); n != 0 {
		t.Fatalf("a miss at capacity allocates %v times, want 0", n)
	}
	if c.len() != 64 {
		t.Fatalf("%d entries, want 64", c.len())
	}

	// Under every policy, once the cache has been full, a hit, a miss at
	// capacity and an invalidate each allocate nothing.
	for pol, row := range cachePolicyTable {
		c := newCache(64, cachePolicyTable[pol].make(&p))
		for k := int64(0); k < 64; k++ {
			c.insert(k, k%2 == 0)
		}
		k := int64(0)
		if n := testing.AllocsPerRun(100, func() { c.insert(k%64, k%3 == 0); c.read((k + 7) % 64); k++ }); n != 0 {
			t.Fatalf("%s: a hit allocates %v times, want 0", row.name, n)
		}
		k = 64
		if n := testing.AllocsPerRun(100, func() { c.insert(k, k%2 == 0); k++ }); n != 0 {
			t.Fatalf("%s: a miss at capacity allocates %v times, want 0", row.name, n)
		}
		k = 0
		if n := testing.AllocsPerRun(50, func() {
			for !c.contains(k) {
				k++
			}
			c.invalidate(k)
		}); n != 0 {
			t.Fatalf("%s: an invalidate allocates %v times, want 0", row.name, n)
		}
		if c.len() != 64-51 {
			t.Fatalf("%s: %d entries after 51 invalidates, want %d", row.name, c.len(), 64-51)
		}
	}
}

// FuzzPageMap checks the slab-backed mapping table against a map
// reference. Each 4-byte op writes one entry: two bytes pick the chunk,
// one the offset, and the last picks unmapped, the tombstone or a
// packed address. The table spans more chunks than three slabs hold, so
// long inputs cross slab boundaries; slabs must never move once handed
// out, and absent chunks must read unmapped.
func FuzzPageMap(f *testing.F) {
	const pages = 3*slabChunks*mapChunk + 100 // the last chunk is partial
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 1})
	// One entry at the same offset of every chunk, so chunks that alias
	// within or across slabs overwrite each other.
	var long []byte
	for c := 0; c < 3*slabChunks+1; c++ {
		long = append(long, byte(c>>8), byte(c), 5, byte(c+2))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newPageMap(pages)
		ref := map[int64]uint32{}
		var slabs []*uint32
		for ; len(ops) >= 4; ops = ops[4:] {
			chunk := (int64(ops[0])<<8 | int64(ops[1])) % int64(len(m.dir))
			lp := min(chunk<<mapChunkBits|int64(ops[2]), pages-1)
			var v uint32
			switch ops[3] % 4 {
			case 0:
				v = unmapped
			case 1:
				v = tombstone
			default:
				v = uint32(ops[3])<<16 | uint32(ops[2])<<8 | uint32(ops[0]) + 1
			}
			m.set(lp, v)
			ref[lp] = v
			if got := m.get(lp); got != v {
				t.Fatalf("get(%d) = %#x right after set(%#x)", lp, got, v)
			}
			for i := len(slabs); i < len(m.slabs); i++ {
				slabs = append(slabs, &m.slabs[i][0])
			}
		}
		for i, p := range slabs {
			if &m.slabs[i][0] != p {
				t.Fatalf("slab %d moved", i)
			}
		}
		touched := map[int64]bool{}
		for lp := range ref {
			touched[lp>>mapChunkBits] = true
		}
		if want := uint32(len(touched) + 1); m.chunks != want {
			t.Fatalf("%d chunks handed out for %d written, want one each plus the zero chunk", m.chunks, len(touched))
		}
		for lp := int64(0); lp < pages; lp++ {
			if got, want := m.get(lp), ref[lp]; got != want { // never written: unmapped
				t.Fatalf("get(%d) = %#x, reference %#x", lp, got, want)
			}
		}
	})
}
