package ssd

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// targetSimPages caps the number of physical flash pages the simulator
// materializes. Real devices hold tens of millions of pages; simulating
// each would dominate memory and time inside the tuning loop, so — like
// other fast SSD models — we simulate a proportionally scaled device:
// the parallelism (channels × chips × dies × planes), page size, over-
// provisioning ratio and occupancy fraction are preserved exactly, while
// blocks-per-plane (and, in extreme layouts, pages-per-block) are scaled
// down. GC pressure depends on the *ratios*, which scaling preserves.
const targetSimPages = 1 << 20

// unmapped marks a logical page with no physical location. Packed
// addresses are stored plus one, so a freshly made mapping table is
// all-unmapped without a fill pass.
const unmapped = uint32(0)

// tombstone is the mapping entry of a prefilled logical page that has
// since been unmapped (TRIM): below the prefill count an unmapped entry
// means "where the prefill put it" (see resolve), so dropping such a
// page needs a value of its own. newPPALayout keeps it out of the
// packable range.
const tombstone = ^uint32(0)

// ErrGeometryTooLarge is returned by the simulator when a device's
// scaled geometry has more (plane, block, slot) combinations than a
// 32-bit mapping entry can address, or more logical pages than an int32
// holds.
var ErrGeometryTooLarge = errors.New("ssd: scaled geometry does not fit 32-bit page addresses")

// maxLogicalPages bounds the logical space: flashBlock.pages and the
// dataCache keys hold a logical page as an int32.
const maxLogicalPages = math.MaxInt32

// logicalPageCount returns the logical pages left of totalPhys physical
// pages after over-provisioning op.
func logicalPageCount(totalPhys int64, op float64) (int64, error) {
	n := int64(float64(totalPhys) * (1 - op))
	if n < 1 {
		return 0, fmt.Errorf("ssd: over-provisioning leaves no logical space")
	}
	if n > maxLogicalPages {
		return 0, fmt.Errorf("%w: %d logical pages", ErrGeometryTooLarge, n)
	}
	return n, nil
}

// ppaLayout packs a physical page address into a 32-bit mapping entry:
// plane | block | slot, each field only as wide as the device needs,
// plus one so that zero stays free for unmapped. The all-ones value is
// the tombstone, so the largest address plus one must stay below it.
type ppaLayout struct {
	blockBits, slotBits uint8
}

func newPPALayout(planes int, bpp, ppb int32) (ppaLayout, error) {
	l := ppaLayout{blockBits: uint8(bits.Len32(uint32(bpp - 1))), slotBits: uint8(bits.Len32(uint32(ppb - 1)))}
	if bits.Len64(uint64(planes-1))+int(l.blockBits)+int(l.slotBits) <= 32 {
		// The largest address, plus one, must still fit below tombstone.
		top := uint64(planes-1)<<(l.blockBits+l.slotBits) | uint64(bpp-1)<<l.slotBits | uint64(ppb-1)
		if top+1 < math.MaxUint32 {
			return l, nil
		}
	}
	return l, fmt.Errorf("%w: %d planes × %d blocks × %d pages", ErrGeometryTooLarge, planes, bpp, ppb)
}

func (l ppaLayout) packPPA(plane planeID, block, slot int32) uint32 {
	return (uint32(plane)<<(l.blockBits+l.slotBits) | uint32(block)<<l.slotBits | uint32(slot)) + 1
}

func (l ppaLayout) unpackPPA(v uint32) (plane planeID, block, slot int32) {
	v--
	return planeID(v >> (l.blockBits + l.slotBits)),
		int32(v >> l.slotBits & (1<<l.blockBits - 1)),
		int32(v & (1<<l.slotBits - 1))
}

// mapChunkBits sets the mapping table's chunk size: 256 entries, so the
// chunks a trace writes stay well under the flat table's size. On the
// Intel 750 the studied categories at 12000 records write at most 833
// chunks, about 0.85 MB of 7.3 MB; 4096-entry chunks would be 4.1 MB.
const mapChunkBits = 8

const mapChunk = 1 << mapChunkBits

// slabChunkBits sets how many chunks one slab of the mapping table
// holds: 64, so a slab is 64 KiB.
const slabChunkBits = 6

const slabChunks = 1 << slabChunkBits

// pageMap is the logical → physical mapping table: a directory of
// chunk indices into fixed-size slabs of mapChunk-entry chunks, with a
// chunk allocated on first write. Chunk 0 stays all zero and every
// absent chunk's directory entry points at it, so a read needs no
// presence branch. The table grows by whole slabs that are never moved
// or copied, and the slabs hold no pointers for the GC to scan.
type pageMap struct {
	dir    []uint32
	slabs  [][]uint32
	chunks uint32 // chunks handed out so far, chunk 0 included
}

func newPageMap(pages int64) pageMap {
	return pageMap{
		dir:    make([]uint32, (pages+mapChunk-1)>>mapChunkBits),
		slabs:  [][]uint32{make([]uint32, slabChunks*mapChunk)},
		chunks: 1,
	}
}

// entry returns the table slot of lp within chunk c.
func (m *pageMap) entry(c uint32, lp int64) *uint32 {
	return &m.slabs[c>>slabChunkBits][(c&(slabChunks-1))<<mapChunkBits|uint32(lp)&(mapChunk-1)]
}

// get returns lp's raw entry: unmapped when it was never written.
func (m *pageMap) get(lp int64) uint32 {
	return *m.entry(m.dir[lp>>mapChunkBits], lp)
}

func (m *pageMap) set(lp int64, v uint32) {
	c := &m.dir[lp>>mapChunkBits]
	if *c == 0 {
		if m.chunks == uint32(len(m.slabs))<<slabChunkBits {
			m.slabs = append(m.slabs, make([]uint32, slabChunks*mapChunk))
		}
		*c = m.chunks
		m.chunks++
	}
	*m.entry(*c, lp) = v
}

// flashBlock is one erase unit.
type flashBlock struct {
	// Slots below prefix are the ones the implicit prefill wrote: they
	// follow its layout, and the mapping alone tells which of them are
	// still live (liveLP). pages holds the logical page of each slot
	// written since, pages[i] for slot prefix+i (-1 = stale), so
	// len(pages) == writePtr-prefix: a write appends its slot, and an
	// erase truncates the array but keeps it for the block's next use. A
	// block the prefill filled holds no array until its first write after
	// GC erases it.
	pages      []int32
	valid      int32
	writePtr   int32
	prefix     int32
	eraseCount int32
	allocSeq   int64 // allocation order, for FIFO GC
	lane       int32 // write lane the block was activated on
	failCount  int32 // cumulative program failures (fault injection)
	retired    bool  // bad block: factory-marked or grown defect
}

func (b *flashBlock) full(pagesPerBlock int32) bool { return b.writePtr >= pagesPerBlock }

// flashPlane is the unit of operation parallelism in the model.
type flashPlane struct {
	blocks []flashBlock
	// actives holds one open (being-written) block per write lane; -1
	// marks a lane that has not been activated yet. Conventional devices
	// have exactly one lane, so actives[0] plays the role the old scalar
	// active field did; multi-stream and ZNS devices fan host writes out
	// over several lanes (see hostifc.go).
	actives  []int32
	freeList []int32
	allocSeq int64
	minErase int32
	maxErase int32
}

// isActive reports whether block b is an open write block on any lane.
func (fp *flashPlane) isActive(b int32) bool {
	for _, a := range fp.actives {
		if a == b {
			return true
		}
	}
	return false
}

// ftl holds the page-mapped flash translation layer state. The two
// policy seams — GC victim selection and (in dataCache) cache
// replacement — are interfaces instantiated from the policy registry, so
// the FTL mechanics stay policy-agnostic; plane allocation is the one
// ordered-stride allocator every scheme parameterizes.
type ftl struct {
	p      *DeviceParams
	alloc  *allocator
	gcPick gcVictimPolicy

	// Scaled geometry.
	blocksPerPlane int32
	pagesPerBlock  int32
	logicalPages   int64
	sectorsPerPage int64
	// capScale is realPhysicalPages / simulatedPhysicalPages. LBAs are
	// divided by it (preserving the workload's span *fraction* and
	// locality structure on the scaled device) and the DRAM cache / CMT
	// entry counts are divided by it (preserving coverage ratios).
	capScale int64
	// sectorsPerFoldedPage is sectorsPerPage × capScale: the sectors one
	// simulated logical page stands for.
	sectorsPerFoldedPage uint64

	planes []flashPlane
	ppaLayout
	mapping pageMap // logical page -> packed PPA; read it through resolve
	stripe  uint64  // write-striping counter
	// stripePlane maps stripe % len to the plane the allocation scheme
	// places that stripe on, die-failure redirects applied.
	stripePlane []planeID
	// prefilled is the number of logical pages the implicit prefill
	// placed, and stripeOf (built by it) inverts stripePlane. Logical
	// pages below prefilled whose entry was never written are where
	// the prefill put them.
	prefilled int64
	stripeOf  []int32

	gcMinFree int32

	// Host-interface model state (hostifc.go). lanes is the per-plane
	// write-lane count (1 for conventional); streamOf records the last
	// host stream tag per logical page (multi-stream only); zns holds the
	// zone write pointers (ZNS only).
	lanes    int
	streamOf []uint8
	zns      *znsState

	// faults is the seeded fault-injection state (faults.go); nil when
	// the device's FaultProfile is disabled, so fault-free runs take no
	// extra branches with observable effects.
	faults *faultState
	// fatal is the sticky unrecoverable device error (ErrOutOfSpace);
	// once set the engine stops issuing work and surfaces it through
	// the Run/RunSource error return.
	fatal error

	// c is the engine's op counters.
	c *Counters
}

// newFTL builds the scaled FTL for params p, counting into c.
func newFTL(p *DeviceParams, c *Counters) (*ftl, error) {
	planes := p.TotalPlanes()
	bpp, ppb := scaleGeometry(p, planes)
	layout, err := newPPALayout(planes, bpp, ppb)
	if err != nil {
		return nil, err
	}
	totalPhys := int64(planes) * int64(bpp) * int64(ppb)
	logicalPages, err := logicalPageCount(totalPhys, p.OverprovisionRatio)
	if err != nil {
		return nil, err
	}

	f := &ftl{
		ppaLayout:      layout,
		p:              p,
		alloc:          newAllocator(p),
		gcPick:         newGCVictimPolicy(p),
		blocksPerPlane: bpp,
		pagesPerBlock:  ppb,
		sectorsPerPage: int64(p.PageSizeBytes / 512),
		logicalPages:   logicalPages,
		c:              c,
	}
	realPhys := int64(planes) * int64(p.BlocksPerPlane) * int64(p.PagesPerBlock)
	f.capScale = realPhys / totalPhys
	if f.capScale < 1 {
		f.capScale = 1
	}
	f.sectorsPerFoldedPage = uint64(f.sectorsPerPage * f.capScale)
	f.gcMinFree = int32(float64(bpp) * p.GCThresholdPct / 100)
	if f.gcMinFree < 1 {
		f.gcMinFree = 1
	}
	if f.gcMinFree >= bpp-1 {
		f.gcMinFree = bpp - 2
	}

	f.lanes = laneCount(p, bpp)
	switch p.HostIfcModel {
	case IfcMultiStream:
		f.streamOf = make([]uint8, f.logicalPages)
	case IfcZNS:
		f.zns = newZNSState(p, f.logicalPages, f.capScale, ppb, f.lanes, c)
	}

	// One array each backs every plane's blocks, free list and lanes.
	// A plane's slices are capped at its own share, so an append past it
	// reallocates instead of reaching the next plane's.
	f.planes = make([]flashPlane, planes)
	blocks := make([]flashBlock, planes*int(bpp))
	free := make([]int32, planes*int(bpp))
	actives := make([]int32, planes*f.lanes)
	for i := range f.planes {
		pl := &f.planes[i]
		lo, hi := i*int(bpp), (i+1)*int(bpp)
		pl.blocks = blocks[lo:hi:hi]
		pl.freeList = free[lo:lo:hi]
		for b := int32(bpp - 1); b >= 1; b-- {
			pl.freeList = append(pl.freeList, b)
		}
		// Lane 0 opens block 0 immediately (matching the historical single
		// active block); further lanes activate lazily on first use so
		// unused lanes never consume free blocks.
		pl.actives = actives[i*f.lanes : (i+1)*f.lanes : (i+1)*f.lanes]
		for l := 1; l < f.lanes; l++ {
			pl.actives[l] = -1
		}
	}
	f.mapping = newPageMap(f.logicalPages)
	if p.Faults.Enabled() {
		if err := f.initFaults(p, planes); err != nil {
			return nil, err
		}
	}
	// The allocator's stripe order repeats every `planes` stripes.
	f.stripePlane = make([]planeID, planes)
	for s := range f.stripePlane {
		f.stripePlane[s] = f.redirectPlane(f.alloc.planeIndex(f.alloc.locate(uint64(s))))
	}
	return f, nil
}

// initFaults seeds the fault RNG and applies the initialization-time
// fault population: failed dies (with plane remapping onto survivors)
// and factory-marked bad blocks (drawn from BadBlockPct, retired off
// the free lists). Draw order is fixed — dies first, then blocks in
// plane/block order — so a given (params, seed) pair always yields the
// same defect map.
func (f *ftl) initFaults(p *DeviceParams, planes int) error {
	fs := newFaultState(p, f.c)
	f.faults = fs

	if n := p.Faults.DieFailures; n > 0 {
		totalDies := p.Channels * p.ChipsPerChannel * p.DiesPerChip
		if n >= totalDies {
			return fmt.Errorf("ssd: fault profile fails all %d dies", totalDies)
		}
		dead := make([]bool, totalDies)
		for k := 0; k < n; k++ {
			d := int(fs.rng.next() % uint64(totalDies))
			for dead[d] {
				d = (d + 1) % totalDies
			}
			dead[d] = true
		}
		// planeIndex iterates planes fastest, so plane pl belongs to die
		// pl / PlanesPerDie.
		fs.deadPlane = make([]bool, planes)
		for pl := 0; pl < planes; pl++ {
			fs.deadPlane[pl] = dead[pl/p.PlanesPerDie]
		}
		fs.redirect = make([]planeID, planes)
		for pl := range fs.redirect {
			t := pl
			for fs.deadPlane[t] {
				t = (t + 1) % planes
			}
			fs.redirect[pl] = planeID(t)
		}
	}

	// Factory bad blocks: each non-active block is marked bad with
	// probability BadBlockPct/100, capped so every plane keeps enough
	// free blocks to operate (the cap only binds at absurd rates).
	if pct := p.BadBlockPct / 100; pct > 0 {
		for pi := range f.planes {
			fp := &f.planes[pi]
			maxBad := len(fp.freeList) - int(f.gcMinFree) - 2
			bad := 0
			for _, b := range fp.freeList {
				if bad >= maxBad {
					break
				}
				if fs.rng.float64() < pct {
					fp.blocks[b].retired = true
					fs.factoryBadBlocks++
					bad++
				}
			}
			if bad > 0 {
				live := fp.freeList[:0]
				for _, b := range fp.freeList {
					if !fp.blocks[b].retired {
						live = append(live, b)
					}
				}
				fp.freeList = live
			}
		}
	}
	return nil
}

// scaleGeometry picks the simulated blocks-per-plane / pages-per-block.
func scaleGeometry(p *DeviceParams, planes int) (bpp, ppb int32) {
	bpp, ppb = int32(p.BlocksPerPlane), int32(p.PagesPerBlock)
	total := func() int64 { return int64(planes) * int64(bpp) * int64(ppb) }
	for total() > targetSimPages && bpp > 8 {
		bpp /= 2
	}
	for total() > 4*targetSimPages && ppb > 32 {
		ppb /= 2
	}
	return bpp, ppb
}

// pageSpan returns the first folded logical page of a request and how
// many consecutive logical pages it touches (callers index page k as
// (firstLP + k) % logicalPages). The count is computed in unfolded page
// space, so a request whose folded range wraps past the end of the
// logical space is modeled page for page instead of collapsing to a
// single page; it is clamped to logicalPages because the modular space
// cannot hold more distinct pages than that. Folding a sector to its
// page and the page to the scaled space is one division by
// sectorsPerFoldedPage, since ⌊⌊a/b⌋/c⌋ = ⌊a/(bc)⌋.
func (f *ftl) pageSpan(lba uint64, sectors uint32) (firstLP, nPages int64) {
	end := lba + uint64(sectors)
	if sectors == 0 {
		end = lba + 1 // defensive: zero-length request touches its page
	}
	first := int64(lba / f.sectorsPerFoldedPage)
	last := int64((end - 1) / f.sectorsPerFoldedPage)
	nPages = min(max(last-first+1, 1), f.logicalPages)
	if first >= f.logicalPages {
		first %= f.logicalPages
	}
	return first, nPages
}

// prefill marks frac of logical pages as written, without timing — the
// paper's "warm up the SSD simulator ... occupy at least 50% of the
// storage capacity".
func (f *ftl) prefill(frac float64) {
	n := int64(float64(f.logicalPages) * frac)
	if !f.implicitPrefill(n) {
		for lp := int64(0); lp < n; lp++ {
			f.placePage(lp, 0)
		}
	}
}

// implicitPrefill writes logical pages [0, n) on lane 0 of a fresh FTL
// and leaves the state n placePage(lp, 0) calls would, as observed
// through resolve, liveLP and the block and plane counters. It touches
// only per-block counters: the mapping entries and the blocks' pages
// arrays stay absent, and each block's prefix covers the slots it
// wrote, standing for the closed-form layout. It
// reports false, touching nothing, when that equivalence cannot be
// shown up front: under fault injection (each program draws from the
// fault RNG), on a used FTL, or when some plane's free list would drop
// below gcMinFree, which makes placePage run GC mid-prefill.
//
// Without faults stripePlane is a permutation of the planes, so row r
// of period stripes puts lp r*period+s on plane stripePlane[s], at slot
// r % pagesPerBlock of that plane's block r / pagesPerBlock: block 0 is
// open from newFTL, and the free list hands out blocks 1, 2, ... in
// order. Only the last, partial row stops short, at stripe n % period.
func (f *ftl) implicitPrefill(n int64) bool {
	if f.faults != nil || f.stripe != 0 {
		return false
	}
	table, ppb := f.stripePlane, int64(f.pagesPerBlock)
	period := int64(len(table))
	rows, rem := n/period, n%period
	pagesOf := func(s int) int64 {
		if int64(s) < rem {
			return rows + 1
		}
		return rows
	}
	for s, pl := range table {
		// Block 0 takes the first ppb pages; every further ppb open one
		// block from the free list.
		if int64(len(f.planes[pl].freeList))-max(pagesOf(s)-1, 0)/ppb < int64(f.gcMinFree) {
			return false
		}
	}
	f.stripeOf = make([]int32, period)
	for s, pl := range table {
		f.stripeOf[pl] = int32(s)
		pages := pagesOf(s)
		opened := int32(max(pages-1, 0) / ppb) // blocks taken from the free list
		fp := &f.planes[pl]
		for b := int32(0); b <= opened; b++ {
			blk := &fp.blocks[b]
			blk.writePtr = int32(min(ppb, pages-int64(b)*ppb))
			blk.valid = blk.writePtr
			blk.prefix = blk.writePtr
			blk.allocSeq = int64(b)
		}
		fp.freeList = fp.freeList[:len(fp.freeList)-int(opened)]
		fp.actives[0] = opened
		fp.allocSeq = int64(opened)
	}
	f.prefilled = n
	f.stripe = uint64(n)
	return true
}

// resolve returns lp's packed physical address, or unmapped. Below the
// prefill count an unset entry stands for where the prefill put lp.
func (f *ftl) resolve(lp int64) uint32 {
	v := f.mapping.get(lp)
	if v == unmapped && lp < f.prefilled {
		period := int64(len(f.stripePlane))
		r, ppb := lp/period, int64(f.pagesPerBlock)
		return f.packPPA(f.stripePlane[lp%period], int32(r/ppb), int32(r%ppb))
	}
	if v == tombstone {
		return unmapped
	}
	return v
}

// unmap drops lp's mapping; a prefilled page keeps a tombstone.
func (f *ftl) unmap(lp int64) {
	v := unmapped
	if lp < f.prefilled {
		v = tombstone
	}
	f.mapping.set(lp, v)
}

// liveLP returns the logical page live in slot (below writePtr) of
// blk, block b on plane pl, or -1 when the slot is stale. The pages
// array marks every stale slot from prefix up -1. A slot below prefix
// holds the page the prefill put there, live exactly while that page's
// mapping entry is unset.
func (f *ftl) liveLP(blk *flashBlock, pl planeID, b, slot int32) int32 {
	if slot >= blk.prefix {
		return blk.pages[slot-blk.prefix]
	}
	row := int64(b)*int64(f.pagesPerBlock) + int64(slot)
	lp := row*int64(len(f.stripePlane)) + int64(f.stripeOf[pl])
	if f.mapping.get(lp) != unmapped {
		return -1
	}
	return int32(lp)
}

// invalidate stales lp's current copy and reports whether it had one.
// Below the block's prefix the slot stays live while lp's entry is
// unset, so lp is unmapped at once: a GC before the caller's own
// mapping update must see the slot stale.
func (f *ftl) invalidate(lp int64) bool {
	v := f.resolve(lp)
	if v == unmapped {
		return false
	}
	pl, b, slot := f.unpackPPA(v)
	blk := &f.planes[pl].blocks[b]
	switch {
	case slot < blk.prefix:
		f.unmap(lp)
	case blk.pages[slot-blk.prefix] == int32(lp):
		blk.pages[slot-blk.prefix] = -1
	default:
		return true
	}
	blk.valid--
	return true
}

// placePage allocates a physical slot for lp on the given write lane,
// updates mapping and valid counters, and returns the plane it landed on
// together with the number of GC page-moves and erases that the
// allocation triggered (zero when no GC ran). Timing is the caller's
// job; lane selection (hostLane) is too.
func (f *ftl) placePage(lp int64, lane int32) (pl planeID, gcMoves, gcErases int32) {
	if f.fatal != nil {
		return 0, 0, 0 // device wedged; engine surfaces f.fatal
	}
	pl = f.stripePlane[f.stripe%uint64(len(f.stripePlane))]
	f.stripe++
	fp := &f.planes[pl]

	// Invalidate the previous location.
	f.invalidate(lp)

	ab := fp.actives[lane]
	if ab < 0 || fp.blocks[ab].full(f.pagesPerBlock) {
		f.advanceActive(fp, pl, lane)
		if f.fatal != nil {
			f.unmap(lp)
			return pl, 0, 0
		}
		ab = fp.actives[lane]
	}
	blk := &fp.blocks[ab]
	if f.faults != nil {
		// Program failures: a failed program leaves its slot unusable
		// until the block is erased (counted against the block's grown-
		// defect budget); the controller retries on the next slot.
		for f.faults.programFails() {
			blk.pages = append(blk.pages, -1)
			blk.writePtr++
			blk.failCount++
			f.c.ProgramFailures++
			if blk.full(f.pagesPerBlock) {
				f.advanceActive(fp, pl, lane)
				if f.fatal != nil {
					f.unmap(lp)
					return pl, 0, 0
				}
				blk = &fp.blocks[fp.actives[lane]]
			}
		}
	}
	slot := blk.writePtr
	blk.writePtr++
	blk.pages = append(blk.pages, int32(lp))
	blk.valid++
	f.mapping.set(lp, f.packPPA(pl, fp.actives[lane], slot))

	if int32(len(fp.freeList)) < f.gcMinFree {
		gcMoves, gcErases = f.collect(fp, pl)
	}
	return pl, gcMoves, gcErases
}

// advanceActive opens a free block as the lane's active block on plane
// pl (fp is &f.planes[pl]). A free block is empty: never written, or
// erased by collect.
func (f *ftl) advanceActive(fp *flashPlane, pl planeID, lane int32) {
	if len(fp.freeList) == 0 {
		// Emergency GC: free at least one block synchronously.
		f.collect(fp, pl)
		if len(fp.freeList) == 0 {
			// Over-provisioning too small, or fault-driven retirement
			// consumed it. Sticky typed error, not a panic: the engine
			// checks f.fatal at the next request boundary.
			f.fatal = ErrOutOfSpace
			return
		}
	}
	nb := fp.freeList[len(fp.freeList)-1]
	fp.freeList = fp.freeList[:len(fp.freeList)-1]
	fp.actives[lane] = nb
	blk := &fp.blocks[nb]
	blk.lane = lane
	fp.allocSeq++
	blk.allocSeq = fp.allocSeq
}

// collect reclaims blocks on the plane until the free list is healthy.
// It returns the number of valid-page moves and erases performed so the
// engine can charge their time and energy.
func (f *ftl) collect(fp *flashPlane, pl planeID) (moves, erasesDone int32) {
	// Progress guard: a plane whose blocks are all (nearly) fully valid
	// cannot be compacted further — each evacuation consumes as much
	// space as the erase frees. Bound the rounds to avoid livelock.
	maxRounds := 2 * int(f.blocksPerPlane)
	for round := 0; int32(len(fp.freeList)) < f.gcMinFree && round < maxRounds; round++ {
		victim := f.pickVictim(fp)
		if victim < 0 {
			break
		}
		blk := &fp.blocks[victim]
		// Move surviving pages into the victim lane's active block:
		// evacuating onto the same lane keeps stream/zone isolation (GC
		// never mixes lanes in one block), and with a single lane it is
		// exactly the historical behavior.
		lane := blk.lane
		for slot := int32(0); slot < blk.writePtr; slot++ {
			lp := f.liveLP(blk, pl, victim, slot)
			if lp < 0 {
				continue // stale
			}
			dst := &fp.blocks[fp.actives[lane]]
			if dst.full(f.pagesPerBlock) {
				// The active block filled during GC; grab a free block
				// directly (one is guaranteed: we only erase after moving).
				if len(fp.freeList) == 0 {
					// Cannot make progress; leave remaining pages.
					break
				}
				f.advanceActive(fp, pl, lane)
				dst = &fp.blocks[fp.actives[lane]]
			}
			s := dst.writePtr
			dst.writePtr++
			dst.pages = append(dst.pages, lp)
			dst.valid++
			f.mapping.set(int64(lp), f.packPPA(pl, fp.actives[lane], s))
			if slot >= blk.prefix {
				blk.pages[slot-blk.prefix] = -1
			}
			blk.valid--
			moves++
		}
		if blk.valid > 0 {
			// Could not fully evacuate; give up to avoid livelock.
			break
		}
		if f.faults != nil && f.faults.retireAtErase(blk) {
			// Bad-block retirement: the erase failed (or the block's
			// grown-defect budget ran out), so the block leaves service
			// instead of rejoining the free list — shrinking the plane's
			// effective over-provisioning. It stays permanently "full"
			// and is skipped by every victim policy via the retired flag.
			blk.retired = true
			blk.writePtr = f.pagesPerBlock
			blk.valid = 0
			f.faults.retiredBlocks++
			f.c.GCRuns++
			continue
		}
		// Erase. The block keeps its pages array for its next use.
		blk.pages = blk.pages[:0]
		blk.prefix = 0
		blk.writePtr = 0
		blk.valid = 0
		blk.eraseCount++
		if blk.eraseCount > fp.maxErase {
			fp.maxErase = blk.eraseCount
		}
		fp.freeList = append(fp.freeList, victim)
		erasesDone++
		f.c.GCRuns++
	}
	f.c.GCReads += int64(moves)
	f.c.GCPrograms += int64(moves)
	f.c.Erases += int64(erasesDone)

	// Static wear leveling: when the erase-count spread exceeds the
	// threshold, swap a cold block with a hot one. Modeled as an extra
	// full-block migration charged like GC moves.
	if f.p.StaticWearLeveling && fp.maxErase-fp.minErase > int32(f.p.WearLevelingThresh) {
		f.c.WearLevelSwaps++
		fp.minErase = fp.maxErase - int32(f.p.WearLevelingThresh)/2
		moves += f.pagesPerBlock
		f.c.GCReads += int64(f.pagesPerBlock)
		f.c.GCPrograms += int64(f.pagesPerBlock)
		erasesDone++
		f.c.Erases++
	}
	return moves, erasesDone
}

// noteStream records the host stream tag of a written logical page
// (multi-stream model only; a no-op elsewhere). The tag is remembered
// because the actual flash program may happen much later, at cache
// eviction, and must still land on the stream's lane.
func (f *ftl) noteStream(lp int64, stream uint32) {
	if f.streamOf != nil {
		f.streamOf[lp] = uint8(stream)
	}
}

// laneFor maps a logical page to its per-plane write lane under the
// configured host-interface model. Conventional devices have a single
// lane; multi-stream routes by the page's recorded stream tag; ZNS
// routes by the page's open-zone slot.
func (f *ftl) laneFor(lp int64) int32 {
	switch f.p.HostIfcModel {
	case IfcMultiStream:
		return int32(int(f.streamOf[lp]) % f.lanes)
	case IfcZNS:
		return f.zns.slotFor(f.zns.zoneOf(lp))
	}
	return 0
}

// trimPage drops lp's mapping and stales its physical slot — the GC
// credit of a TRIM: the page no longer needs to be moved at collection
// time. Reports whether lp was actually mapped.
func (f *ftl) trimPage(lp int64) bool {
	if !f.invalidate(lp) {
		return false
	}
	f.unmap(lp)
	f.c.TrimmedPages++
	return true
}

// pickVictim selects a GC victim block index via the configured policy,
// or -1 when none qualifies.
func (f *ftl) pickVictim(fp *flashPlane) int32 {
	return f.gcPick.pickVictim(f, fp)
}

// lookup returns the plane that holds lp. Pages never written are given a
// deterministic pseudo-location so that reads of cold data still exercise
// the layout (they are spread exactly like striped writes would be). That
// is also the plane the implicit prefill put lp on, so a prefilled page
// needs no resolve here, and a trimmed one reads as never written.
func (f *ftl) lookup(lp int64) planeID {
	if v := f.mapping.get(lp); v != unmapped && v != tombstone {
		pl, _, _ := f.unpackPPA(v)
		return pl
	}
	return f.stripePlane[uint64(lp)%uint64(len(f.stripePlane))]
}
