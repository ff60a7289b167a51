package ssd

import (
	"context"
	"testing"

	"autoblox/internal/workload"
)

// slotLive returns the logical page the reverse map (liveLP) holds live
// in slot of block b on plane pl, or -1 when the slot is free or stale.
// It covers blocks the implicit prefill left without a pages array as
// well as written ones; auditFTL checks it against resolve.
func slotLive(f *ftl, pl planeID, b, slot int32) int32 {
	blk := &f.planes[pl].blocks[b]
	if slot >= blk.writePtr {
		return -1
	}
	return f.liveLP(blk, pl, b, slot)
}

// auditFTL checks the FTL conservation invariants after arbitrary churn:
// every mapped logical page is live in exactly one physical slot, every
// slot the reverse map holds live is the one its mapping points at,
// per-block valid counters match a recount, every block's pages array
// holds exactly its slots from prefix up to the write pointer, and no
// counter went negative.
func auditFTL(t *testing.T, label string, f *ftl) {
	t.Helper()
	liveCount := make(map[int32]int32)
	var totalValid int64
	for pi := range f.planes {
		fp := &f.planes[pi]
		for bi := range fp.blocks {
			blk := &fp.blocks[bi]
			if blk.valid < 0 {
				t.Fatalf("%s: plane %d block %d valid = %d", label, pi, bi, blk.valid)
			}
			if blk.writePtr < 0 || blk.writePtr > f.pagesPerBlock {
				t.Fatalf("%s: plane %d block %d writePtr = %d", label, pi, bi, blk.writePtr)
			}
			if len(blk.pages) != int(blk.writePtr-blk.prefix) {
				t.Fatalf("%s: plane %d block %d holds %d pages between prefix %d and writePtr %d",
					label, pi, bi, len(blk.pages), blk.prefix, blk.writePtr)
			}
			totalValid += int64(blk.valid)
			var recount int32
			for slot := int32(0); slot < blk.writePtr; slot++ {
				lp := slotLive(f, planeID(pi), int32(bi), slot)
				if lp < 0 {
					continue
				}
				recount++
				liveCount[lp]++
				if f.resolve(int64(lp)) != f.packPPA(planeID(pi), int32(bi), slot) {
					t.Fatalf("%s: lp %d live in plane %d block %d slot %d but mapping disagrees", label, lp, pi, bi, slot)
				}
			}
			if recount != blk.valid {
				t.Fatalf("%s: plane %d block %d valid = %d but recount = %d", label, pi, bi, blk.valid, recount)
			}
		}
	}
	var mapped int64
	for lp := int64(0); lp < f.logicalPages; lp++ {
		if f.resolve(lp) == unmapped {
			if liveCount[int32(lp)] != 0 {
				t.Fatalf("%s: unmapped lp %d has %d live copies", label, lp, liveCount[int32(lp)])
			}
			continue
		}
		mapped++
		if liveCount[int32(lp)] != 1 {
			t.Fatalf("%s: lp %d has %d live copies, want exactly 1", label, lp, liveCount[int32(lp)])
		}
	}
	if mapped != totalValid {
		t.Fatalf("%s: %d mapped logical pages but %d valid physical pages", label, mapped, totalValid)
	}
}

func eraseCounts(f *ftl) [][]int32 {
	out := make([][]int32, len(f.planes))
	for pi := range f.planes {
		fp := &f.planes[pi]
		out[pi] = make([]int32, len(fp.blocks))
		for bi := range fp.blocks {
			out[pi][bi] = fp.blocks[bi].eraseCount
		}
	}
	return out
}

// sweepPolicyMatrix replays a mixed read/write/trim trace (with stream
// tags) on a GC-pressured device under every (host interface × GC
// policy × cache policy × alloc scheme) combination, audits that no
// logical page was lost or duplicated and that erase counts only ever
// grew, and — with faults enabled — that retired blocks stay off the
// free lists. Model-specific audits ride along: zone write-pointer
// bounds for ZNS, per-lane stream isolation for multi-stream.
func sweepPolicyMatrix(t *testing.T, faults FaultProfile, tweak func(*DeviceParams)) {
	tr := workload.MustGenerate(workload.FIU,
		workload.Options{Requests: 2500, Seed: 11, TrimRatio: 0.08, Streams: 3})
	schemes := allocSchemes.allNames()
	if testing.Short() {
		schemes = schemes[:4] // 144 combinations instead of 576
	}
	for ii := range hostIfcs.allNames() {
		for gi := range gcPolicies.allNames() {
			for ci := range cachePolicies.allNames() {
				for si := range schemes {
					p := smallDevice()
					p.HostIfcModel = HostIfc(ii)
					p.ZoneSizeMB = 1 // many zones on the small test device
					p.MaxOpenZones = 4
					p.WriteStreams = 3
					p.GCPolicy = GCPolicy(gi)
					p.CachePolicy = CachePolicy(ci)
					p.PlaneAllocScheme = AllocScheme(si)
					p.Faults = faults
					if tweak != nil {
						tweak(&p)
					}
					label := p.HostIfcModel.String() + "/" + p.GCPolicy.String() + "/" + p.CachePolicy.String() + "/" + p.PlaneAllocScheme.String()
					eng, err := newEngine(&p)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					src := tr.Source()
					if _, err := eng.warmup(context.Background(), src); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					auditFTL(t, label+"/warm", eng.ftl)
					before := eraseCounts(eng.ftl)
					src.Reset()
					if _, err := eng.run(context.Background(), src); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					auditFTL(t, label, eng.ftl)
					after := eraseCounts(eng.ftl)
					for pi := range after {
						for bi := range after[pi] {
							if after[pi][bi] < before[pi][bi] {
								t.Fatalf("%s: plane %d block %d erase count went %d -> %d", label, pi, bi, before[pi][bi], after[pi][bi])
							}
						}
					}
					auditRetired(t, label, eng.ftl)
					auditZones(t, label, eng.ftl)
					auditStreamIsolation(t, label, eng)
				}
			}
		}
	}
}

// auditRetired verifies retired blocks never reappear on a free list or
// as an active block.
func auditRetired(t *testing.T, label string, f *ftl) {
	t.Helper()
	for pi := range f.planes {
		fp := &f.planes[pi]
		for _, a := range fp.actives {
			if a >= 0 && fp.blocks[a].retired {
				t.Fatalf("%s: plane %d active block %d is retired", label, pi, a)
			}
		}
		for _, b := range fp.freeList {
			if fp.blocks[b].retired {
				t.Fatalf("%s: plane %d retired block %d on free list", label, pi, b)
			}
		}
	}
}

func TestFTLConservationInvariants(t *testing.T) {
	sweepPolicyMatrix(t, FaultProfile{}, nil)
}

// TestFTLConservationInvariantsWithFaults re-runs the full policy
// matrix with program/erase/read faults injected: conservation and
// erase monotonicity must survive slot-wasting program failures,
// bad-block retirement and read-retry churn.
func TestFTLConservationInvariantsWithFaults(t *testing.T) {
	sweepPolicyMatrix(t, FaultProfile{Rate: 0.01, Seed: 7}, nil)
}

// TestFTLConservationInvariantsWithDieFailure adds a failed die on top
// of the fault rate, exercising the plane-remapping path. The device
// gets more dies and a lower occupancy than smallDevice: losing one of
// smallDevice's four dies removes more capacity than its 8%
// over-provisioning covers, which is (correctly) ErrOutOfSpace.
func TestFTLConservationInvariantsWithDieFailure(t *testing.T) {
	sweepPolicyMatrix(t, FaultProfile{Rate: 0.005, Seed: 3, DieFailures: 1}, func(p *DeviceParams) {
		p.DiesPerChip = 2
		p.InitialOccupancyFrac = 0.4
	})
}
