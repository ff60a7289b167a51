package ssd

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"autoblox/internal/workload"
)

// diffFTL names the first piece of observable FTL state in which a and
// b differ, or returns "" when they agree: the resolved address of every
// logical page, stripe counter, op counters, fault state, every plane's
// free list, actives and counters, and per block every counter and the
// logical page live in each slot. How a block records its slots (its
// pages array and the closed-form prefix below it) is representation,
// not state, and is not compared; on both sides the pages array must
// hold exactly the slots from prefix up to the write pointer.
func diffFTL(a, b *ftl) string {
	for lp := int64(0); lp < a.logicalPages; lp++ {
		if va, vb := a.resolve(lp), b.resolve(lp); va != vb {
			return fmt.Sprintf("resolve(%d) %#x != %#x", lp, va, vb)
		}
	}
	if a.stripe != b.stripe {
		return fmt.Sprintf("stripe %d != %d", a.stripe, b.stripe)
	}
	if a.fatal != b.fatal || *a.c != *b.c {
		return fmt.Sprintf("counters/fatal differ: %v %+v vs %v %+v", a.fatal, *a.c, b.fatal, *b.c)
	}
	if !reflect.DeepEqual(a.faults, b.faults) {
		return "fault state differs"
	}
	for pl := range a.planes {
		pa, pb := &a.planes[pl], &b.planes[pl]
		if !slices.Equal(pa.freeList, pb.freeList) {
			return fmt.Sprintf("plane %d freeList %v != %v", pl, pa.freeList, pb.freeList)
		}
		if !slices.Equal(pa.actives, pb.actives) {
			return fmt.Sprintf("plane %d actives %v != %v", pl, pa.actives, pb.actives)
		}
		for bi := range pa.blocks {
			ba, bb := pa.blocks[bi], pb.blocks[bi]
			for _, blk := range []flashBlock{ba, bb} {
				if len(blk.pages) != int(blk.writePtr-blk.prefix) {
					return fmt.Sprintf("plane %d block %d: %d pages between prefix %d and write pointer %d",
						pl, bi, len(blk.pages), blk.prefix, blk.writePtr)
				}
			}
			ba.pages, bb.pages = nil, nil
			ba.prefix, bb.prefix = 0, 0
			if !reflect.DeepEqual(ba, bb) {
				return fmt.Sprintf("plane %d block %d: %+v != %+v", pl, bi, ba, bb)
			}
			for slot := int32(0); slot < ba.writePtr; slot++ {
				la, lb := slotLive(a, planeID(pl), int32(bi), slot), slotLive(b, planeID(pl), int32(bi), slot)
				if la != lb {
					return fmt.Sprintf("plane %d block %d slot %d holds live lp %d != %d", pl, bi, slot, la, lb)
				}
			}
		}
		qa, qb := *pa, *pb
		qa.blocks, qb.blocks = nil, nil
		if !reflect.DeepEqual(qa, qb) {
			return fmt.Sprintf("plane %d counters: allocSeq %d/%d erase range %d-%d/%d-%d", pl,
				pa.allocSeq, pb.allocSeq, pa.minErase, pa.maxErase, pb.minErase, pb.maxErase)
		}
	}
	return ""
}

// victimLog records every GC victim its policy picks, as plane and
// block, so two FTLs can be checked for the same collection sequence.
type victimLog struct {
	gcVictimPolicy
	picks [][2]int
}

func (v *victimLog) pickVictim(f *ftl, fp *flashPlane) int32 {
	b := v.gcVictimPolicy.pickVictim(f, fp)
	v.picks = append(v.picks, [2]int{slices.IndexFunc(f.planes, func(p flashPlane) bool { return &p.blocks[0] == &fp.blocks[0] }), int(b)})
	return b
}

// churn applies the same seeded mix of overwrites (half of them aimed
// at the prefilled pages), TRIMs and the GC they trigger to a and b,
// and fails at the first operation after which their placement, GC
// moves and erases, victims or observable state differ.
func churn(t testing.TB, a, b *ftl, n int64, ops int) {
	t.Helper()
	la, lb := &victimLog{gcVictimPolicy: a.gcPick}, &victimLog{gcVictimPolicy: b.gcPick}
	a.gcPick, b.gcPick = la, lb
	rng := rand.New(rand.NewSource(int64(ops) ^ n))
	seen := 0 // victims already compared
	for i := 0; i < ops; i++ {
		lp := rng.Int63n(a.logicalPages)
		if n > 0 && rng.Intn(2) == 0 {
			lp = rng.Int63n(n)
		}
		if rng.Intn(20) == 0 {
			if ta, tb := a.trimPage(lp), b.trimPage(lp); ta != tb {
				t.Fatalf("op %d: trimPage(%d) = %v != %v", i, lp, ta, tb)
			}
			continue
		}
		pa, ma, ea := a.placePage(lp, a.laneFor(lp))
		pb, mb, eb := b.placePage(lp, b.laneFor(lp))
		if pa != pb || ma != mb || ea != eb {
			t.Fatalf("op %d: placePage(%d) = (%d, %d, %d) != (%d, %d, %d)", i, lp, pa, ma, ea, pb, mb, eb)
		}
		if len(la.picks) != len(lb.picks) || !slices.Equal(la.picks[seen:], lb.picks[seen:]) {
			t.Fatalf("op %d: GC victims %v != %v", i, la.picks[seen:], lb.picks[seen:])
		}
		seen = len(la.picks)
	}
	a.gcPick, b.gcPick = la.gcVictimPolicy, lb.gcVictimPolicy
	if d := diffFTL(a, b); d != "" {
		t.Fatalf("after %d churn ops (%d GC victims): %s", ops, len(la.picks), d)
	}
}

// checkPrefill fills frac of p's logical space twice, once through
// implicitPrefill and once through the placePage(lp, 0) loop, and fails
// unless both leave the same observable state, before and after ops
// operations of churn. When implicitPrefill declines it must leave the
// FTL untouched; the placePage loop then runs on it, as prefill does,
// and the churn is skipped: both sides would run the same code. It
// reports whether the implicit path ran.
func checkPrefill(t testing.TB, p DeviceParams, frac float64, ops int) (implicit bool) {
	t.Helper()
	build := func() *ftl {
		f, err := newFTL(&p, new(Counters))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	want, got := build(), build()
	n := int64(float64(want.logicalPages) * frac)
	for lp := int64(0); lp < n; lp++ {
		want.placePage(lp, 0)
	}
	if implicit = got.implicitPrefill(n); !implicit {
		if d := diffFTL(got, build()); d != "" {
			t.Fatalf("declined implicit prefill modified state: %s", d)
		}
		for lp := int64(0); lp < n; lp++ {
			got.placePage(lp, 0)
		}
	}
	if d := diffFTL(got, want); d != "" {
		t.Fatalf("%s/%s occupancy %.2f (implicit=%v): %s", p.PlaneAllocScheme, p.HostIfcModel, frac, implicit, d)
	}
	if implicit {
		churn(t, got, want, n, ops)
	}
	return implicit
}

// prefillDevice has every fan-out level above one (so the allocation
// schemes stripe differently) and a non-power-of-two chip count.
func prefillDevice() DeviceParams {
	p := smallDevice()
	p.Channels, p.ChipsPerChannel, p.DiesPerChip, p.PlanesPerDie = 2, 3, 2, 2
	p.BlocksPerPlane, p.PagesPerBlock = 32, 32
	return p
}

// referenceDevices are the shipped device presets.
func referenceDevices() map[string]DeviceParams {
	return map[string]DeviceParams{
		"intel750":      Intel750(),
		"samsung850pro": Samsung850Pro(),
		"samsungzssd":   SamsungZSSD(),
		"default":       DefaultParams(),
	}
}

// TestStripePlaneIsPermutation pins the precondition of the implicit
// prefill's closed-form layout: without faults, one period of stripes puts
// exactly one stripe on every plane, under every allocation scheme.
func TestStripePlaneIsPermutation(t *testing.T) {
	devices := referenceDevices()
	devices["prefill"] = prefillDevice()
	for name, base := range devices {
		for scheme := 0; scheme < NumAllocSchemes; scheme++ {
			p := base
			p.PlaneAllocScheme = AllocScheme(scheme)
			f, err := newFTL(&p, new(Counters))
			if err != nil {
				t.Fatal(err)
			}
			if len(f.stripePlane) != len(f.planes) {
				t.Fatalf("%s/%s: period %d, want %d planes", name, p.PlaneAllocScheme, len(f.stripePlane), len(f.planes))
			}
			seen := make([]bool, len(f.planes))
			for s, pl := range f.stripePlane {
				if seen[pl] {
					t.Fatalf("%s/%s: stripe %d lands on plane %d a second time", name, p.PlaneAllocScheme, s, pl)
				}
				seen[pl] = true
			}
		}
	}
}

func TestImplicitPrefillMatchesPlacePage(t *testing.T) {
	for scheme := 0; scheme < NumAllocSchemes; scheme++ {
		for ifc := range hostIfcs.allNames() {
			for _, occ := range []float64{0, 0.5, 0.85, 0.99} {
				p := prefillDevice()
				p.PlaneAllocScheme = AllocScheme(scheme)
				p.HostIfcModel = HostIfc(ifc)
				// At 0.99 a plane's free list reaches the GC threshold
				// mid-prefill, so only the placePage loop is exact. The
				// churn writes most of the device again, so GC runs.
				if implicit := checkPrefill(t, p, occ, 20000); implicit != (occ < 0.99) {
					t.Fatalf("%s/%s occupancy %.2f: implicit path ran = %v", p.PlaneAllocScheme, p.HostIfcModel, occ, implicit)
				}
			}
		}
	}
	for name, p := range referenceDevices() {
		if !checkPrefill(t, p, p.InitialOccupancyFrac, 20000) {
			t.Fatalf("%s: implicit prefill declined at its own occupancy", name)
		}
	}
}

func TestImplicitPrefillDeclinesUnderFaults(t *testing.T) {
	for _, fp := range []FaultProfile{{DieFailures: 1, Seed: 3}, {Rate: 0.001, Seed: 7}} {
		p := prefillDevice()
		p.Faults = fp
		if checkPrefill(t, p, 0.5, 0) {
			t.Fatalf("faults %+v: implicit prefill ran, want the placePage fallback", fp)
		}
	}
}

// FuzzPrefillMatchesPlacePage checks the implicit prefill, and a short
// churn after it, against the placePage loop over small random
// geometries, schemes, host interfaces, occupancies, GC thresholds and
// die failures.
func FuzzPrefillMatchesPlacePage(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(2), uint8(3), uint8(2), uint8(2), uint8(32), uint8(32), uint8(128), uint8(8), uint8(10), uint8(0))
	f.Add(uint8(9), uint8(1), uint8(3), uint8(1), uint8(4), uint8(1), uint8(16), uint8(64), uint8(217), uint8(7), uint8(5), uint8(0))
	f.Add(uint8(15), uint8(2), uint8(1), uint8(2), uint8(1), uint8(3), uint8(40), uint8(24), uint8(252), uint8(20), uint8(15), uint8(0))
	f.Add(uint8(4), uint8(0), uint8(2), uint8(2), uint8(2), uint8(1), uint8(32), uint8(32), uint8(128), uint8(8), uint8(10), uint8(1))
	// 24 planes × 16 pages per block at 780 pages: 32 full rows fill
	// each plane's second block, so the partial last row (12 stripes)
	// opens a third block on half the planes.
	f.Add(uint8(11), uint8(0), uint8(1), uint8(2), uint8(1), uint8(1), uint8(12), uint8(12), uint8(36), uint8(8), uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, scheme, ifc, ch, chips, dies, planes, bpp, ppb, occ, op, gcPct, dieFail uint8) {
		p := DefaultParams()
		p.PlaneAllocScheme = AllocScheme(scheme % NumAllocSchemes)
		p.HostIfcModel = HostIfc(int(ifc) % len(hostIfcs.allNames()))
		p.Channels, p.ChipsPerChannel = 1+int(ch%4), 1+int(chips%4)
		p.DiesPerChip, p.PlanesPerDie = 1+int(dies%4), 1+int(planes%4)
		p.BlocksPerPlane, p.PagesPerBlock = 4+int(bpp%125), 4+int(ppb%125)
		p.OverprovisionRatio = 0.02 + float64(op%48)/100
		p.GCThresholdPct = 1 + float64(gcPct%30)
		p.Faults.DieFailures = int(dieFail % 2)
		if err := p.Validate(); err != nil {
			return
		}
		checkPrefill(t, p, float64(occ)/255, 4000)
	})
}

// TestGeometryTooLargeIsTypedError: validation allows up to 1024 at
// every fan-out level, but 1024 channels × 1024 chips × 1 die × 1024
// planes is 2^30 planes, which with the minimum scaled blocks and pages
// needs more than 32 address bits. The simulator must refuse it with
// ErrGeometryTooLarge before allocating per-plane state, and likewise a
// geometry with more logical pages than an int32 holds.
func TestGeometryTooLargeIsTypedError(t *testing.T) {
	p := DefaultParams()
	p.Channels, p.ChipsPerChannel, p.DiesPerChip, p.PlanesPerDie = 1024, 1024, 1, 1024
	if err := p.Validate(); err != nil {
		t.Fatalf("geometry should pass validation: %v", err)
	}
	if _, err := newFTL(&p, new(Counters)); !errors.Is(err, ErrGeometryTooLarge) {
		t.Fatalf("newFTL error = %v, want ErrGeometryTooLarge", err)
	}
	// At exactly 32 bits the last address, plus one, would wrap to
	// unmapped; one plane fewer leaves room for it.
	if _, err := newPPALayout(1<<16, 1<<8, 1<<8); !errors.Is(err, ErrGeometryTooLarge) {
		t.Fatalf("full 32-bit layout error = %v, want ErrGeometryTooLarge", err)
	}
	if _, err := newPPALayout(1<<16-1, 1<<8, 1<<8); err != nil {
		t.Fatalf("32-bit layout with a spare top address: %v", err)
	}
	// One slot short of that, the last address plus one would be the
	// all-ones tombstone; two slots short it is the largest packable
	// value.
	if _, err := newPPALayout(1<<16, 1<<8, 1<<8-1); !errors.Is(err, ErrGeometryTooLarge) {
		t.Fatalf("layout whose last address packs to the tombstone: error = %v, want ErrGeometryTooLarge", err)
	}
	l, err := newPPALayout(1<<16, 1<<8, 1<<8-2)
	if err != nil {
		t.Fatalf("layout one below the tombstone: %v", err)
	}
	if v := l.packPPA(1<<16-1, 1<<8-1, 1<<8-3); v != tombstone-1 {
		t.Fatalf("last address packs to %#x, want %#x", v, tombstone-1)
	}
	sim, err := NewSimulator(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(testTrace(workload.Database, 10)); !errors.Is(err, ErrGeometryTooLarge) {
		t.Fatalf("Run error = %v, want ErrGeometryTooLarge", err)
	}

	// Logical pages are int32 in the reverse maps and the DRAM caches:
	// 2^31-1 fits, one more does not, with or without over-provisioning.
	if n, err := logicalPageCount(1<<31-1, 0); err != nil || n != 1<<31-1 {
		t.Fatalf("logicalPageCount(2^31-1, 0) = %d, %v", n, err)
	}
	if _, err := logicalPageCount(1<<31, 0); !errors.Is(err, ErrGeometryTooLarge) {
		t.Fatalf("2^31 logical pages: error = %v, want ErrGeometryTooLarge", err)
	}
	if n, err := logicalPageCount(1<<32-2, 0.5); err != nil || n != 1<<31-1 {
		t.Fatalf("logicalPageCount(2^32-2, 0.5) = %d, %v", n, err)
	}
	if _, err := logicalPageCount(1<<32, 0.5); !errors.Is(err, ErrGeometryTooLarge) {
		t.Fatalf("2^31 logical pages after over-provisioning: error = %v, want ErrGeometryTooLarge", err)
	}
	// A validated geometry whose physical addresses fit 32 bits but whose
	// logical space does not: 12 × 2^20 planes at the minimum scaled 8
	// blocks × 32 pages are 3 × 2^30 physical pages. Building its FTL
	// would allocate the planes first, so only the bound is checked.
	p.Channels, p.ChipsPerChannel, p.DiesPerChip, p.PlanesPerDie = 1024, 1024, 12, 1
	if err := p.Validate(); err != nil {
		t.Fatalf("geometry should pass validation: %v", err)
	}
	planes := p.TotalPlanes()
	bpp, ppb := scaleGeometry(&p, planes)
	if _, err := newPPALayout(planes, bpp, ppb); err != nil {
		t.Fatalf("%d planes × %d blocks × %d pages should fit the physical layout: %v", planes, bpp, ppb, err)
	}
	if _, err := logicalPageCount(int64(planes)*int64(bpp)*int64(ppb), p.OverprovisionRatio); !errors.Is(err, ErrGeometryTooLarge) {
		t.Fatalf("logical space of %d planes: error = %v, want ErrGeometryTooLarge", planes, err)
	}
}
