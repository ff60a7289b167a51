package ssd

import (
	"fmt"
	"runtime"
	"testing"

	"autoblox/internal/workload"
)

// BenchmarkSimSetup measures per-simulation set-up on the Intel 750
// reference device: newEngine alone (FTL construction plus the
// warm-up prefill), a 100-record RunSource, where set-up is nearly all
// of the cost, and a 12,000-record one, the trace size of a default
// Database tune's validations.
func BenchmarkSimSetup(b *testing.B) {
	p := Intel750()
	b.Run("newEngine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := newEngine(&p); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{100, 12000} {
		b.Run(fmt.Sprintf("RunSource%d", n), func(b *testing.B) {
			sim, err := NewSimulator(p)
			if err != nil {
				b.Fatal(err)
			}
			opt := workload.Options{Requests: n, Seed: 11}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunSource(workload.MustSource(workload.Database, opt)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSetupAllocatesPerBlockNotPerPage pins set-up at O(blocks): the
// prefill leaves the half-full device implicit, so building an engine
// allocates no per-page state. The flat mapping table and the reverse
// maps of the prefilled blocks came to 11.6 MB on the Intel 750.
func TestSetupAllocatesPerBlockNotPerPage(t *testing.T) {
	for name, p := range referenceDevices() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := newEngine(&p)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if e.ftl.prefilled == 0 {
			t.Fatalf("%s: prefill fell back to placePage", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: newEngine allocated %d bytes, want under 1 MiB", name, got)
		}
	}
}

// TestFirstWritesAllocateOnlyTails pins the cost of the first write to
// each plane at the slot it writes: the block the prefill left open
// keeps its prefilled slots in closed form, and its pages array, like a
// freshly opened block's, grows with the slots written. So one write per
// plane allocates one small array each (8 bytes; 16 under the race
// detector), plus any mapping slab it adds, however long the open
// blocks' unwritten tails are.
func TestFirstWritesAllocateOnlyTails(t *testing.T) {
	const perSlot = 16
	for name, p := range referenceDevices() {
		e, err := newEngine(&p)
		if err != nil {
			t.Fatal(err)
		}
		f := e.ftl
		var tails uint64
		for i := range f.planes {
			fp := &f.planes[i]
			tails += uint64(f.pagesPerBlock-fp.blocks[fp.actives[0]].writePtr) * 4
		}
		slabs := len(f.mapping.slabs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range f.planes {
			f.placePage((f.prefilled+int64(i))%f.logicalPages, 0)
		}
		runtime.ReadMemStats(&after)
		slabBytes := uint64(len(f.mapping.slabs)-slabs) * slabChunks * mapChunk * 4
		if got, limit := after.TotalAlloc-before.TotalAlloc, perSlot*uint64(len(f.planes))+slabBytes; got > limit {
			t.Errorf("%s: first write to each of %d planes allocated %d bytes, want at most %d (%d per slot + slabs %d; the open blocks' tails are %d)",
				name, len(f.planes), got, limit, perSlot, slabBytes, tails)
		}
	}
}

// TestNewFTLAllocationsIndependentOfPlanes pins newFTL at a fixed number
// of allocations: every plane's blocks, free list and lanes are carved
// out of one shared array each.
func TestNewFTLAllocationsIndependentOfPlanes(t *testing.T) {
	allocs := func(channels int) (float64, int) {
		p := Intel750()
		p.Channels = channels
		var planes int
		n := testing.AllocsPerRun(5, func() {
			f, err := newFTL(&p, new(Counters))
			if err != nil {
				t.Fatal(err)
			}
			planes = len(f.planes)
		})
		return n, planes
	}
	few, fewPlanes := allocs(1)
	many, manyPlanes := allocs(12)
	if many > few {
		t.Fatalf("newFTL: %v allocations for %d planes, %v for %d", many, manyPlanes, few, fewPlanes)
	}
}
