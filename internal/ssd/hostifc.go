package ssd

// Host-interface command-set models. The conventional block interface,
// zoned namespaces (ZNS) and multi-stream (directive) writes differ in
// what the host tells the device about data placement; the FTL turns
// that into "lanes": per-plane active write blocks. Conventional devices
// have one lane, a multi-stream device has one lane per write stream
// (so GC never mixes streams in a block), and a ZNS device has one lane
// per open zone slot. TRIM/discard is handled uniformly by all three
// models (mapping invalidation, stale-page accounting, GC credit);
// hostifc-specific write-pointer state lives in znsState below.

// HostIfc selects the host-interface command-set model.
type HostIfc uint8

const (
	// IfcConventional is the classic block interface: the device owns
	// placement entirely, one active write block per plane.
	IfcConventional HostIfc = iota
	// IfcZNS is the zoned-namespace model: the logical space is split
	// into zones with per-zone write pointers; sequential (append-order)
	// writes are free, rewrites below the pointer are violations charged
	// a reclaim penalty, a full-zone TRIM is a zone reset, and the
	// mapping table is zone-granular (the ZNS metadata saving).
	IfcZNS
	// IfcMultiStream is the multi-stream (write directive) model:
	// stream-tagged writes are routed to per-stream active blocks, so
	// GC never mixes streams and same-lifetime data dies together.
	IfcMultiStream
)

// hostIfcTable is the single source of truth for the host-interface
// model domain: row order defines the wire value.
var hostIfcTable = []policyEntry[struct{}]{
	IfcConventional: {name: "conventional", doc: "block interface, device-managed placement"},
	IfcZNS:          {name: "zns", doc: "zoned namespace: write pointers, zone-granular mapping"},
	IfcMultiStream:  {name: "multistream", doc: "stream-tagged writes, per-stream GC isolation"},
}

var hostIfcs = domainOf("host interface model", hostIfcTable)

// String returns the model's registry name.
func (h HostIfc) String() string { return hostIfcs.name(uint8(h)) }

// laneCount returns the number of per-plane write lanes the configured
// model needs, clamped so every plane keeps enough non-active blocks
// for GC to make progress (each lane pins one active block per plane).
func laneCount(p *DeviceParams, blocksPerPlane int32) int {
	lanes := 1
	switch p.HostIfcModel {
	case IfcMultiStream:
		lanes = p.WriteStreams
	case IfcZNS:
		lanes = p.MaxOpenZones
	}
	if max := int(blocksPerPlane) / 4; lanes > max {
		lanes = max
	}
	if lanes < 1 {
		lanes = 1
	}
	return lanes
}

// znsState is the zoned-namespace bookkeeping over the folded logical
// space: per-zone write pointers and the open-zone slot table that maps
// zones onto write lanes. Slots are recycled in FIFO (round-robin)
// order when a write opens a zone beyond MaxOpenZones.
type znsState struct {
	zonePages  int64     // folded logical pages per zone
	wp         []int64   // per-zone write pointer (page offset into the zone)
	slotOfZone []int16   // zone -> open lane slot, -1 when closed
	zoneOfSlot []int64   // lane slot -> zone currently holding it, -1 when empty
	nextSlot   int       // FIFO recycle cursor
	c          *Counters // the engine's op counters: WPViolations, ZoneResets
}

// newZNSState sizes zones on the scaled device: the configured zone
// size is folded by capScale like every address, and clamped to at
// least one simulated erase block (a zone is never smaller than the
// erase unit it maps onto).
func newZNSState(p *DeviceParams, logicalPages, capScale int64, pagesPerBlock int32, lanes int, c *Counters) *znsState {
	zonePages := (int64(p.ZoneSizeMB) << 20 / int64(p.PageSizeBytes)) / capScale
	if zonePages < int64(pagesPerBlock) {
		zonePages = int64(pagesPerBlock)
	}
	zones := (logicalPages + zonePages - 1) / zonePages
	z := &znsState{
		zonePages:  zonePages,
		wp:         make([]int64, zones),
		slotOfZone: make([]int16, zones),
		zoneOfSlot: make([]int64, lanes),
		c:          c,
	}
	for i := range z.slotOfZone {
		z.slotOfZone[i] = -1
	}
	for i := range z.zoneOfSlot {
		z.zoneOfSlot[i] = -1
	}
	return z
}

func (z *znsState) zoneOf(lp int64) int64 { return lp / z.zonePages }

// slotFor returns the zone's open lane slot, opening the zone (and
// implicitly closing the slot's previous tenant) when needed.
func (z *znsState) slotFor(zone int64) int32 {
	if s := z.slotOfZone[zone]; s >= 0 {
		return int32(s)
	}
	s := z.nextSlot
	z.nextSlot = (z.nextSlot + 1) % len(z.zoneOfSlot)
	if old := z.zoneOfSlot[s]; old >= 0 {
		z.slotOfZone[old] = -1
	}
	z.zoneOfSlot[s] = zone
	z.slotOfZone[zone] = int16(s)
	return int32(s)
}

// noteWrite advances the zone write pointer for a host write of lp and
// reports whether the write violates the pointer. Appends at or past
// the pointer advance it (capScale folding can legitimately skip
// forward); a rewrite of the frontier page (wp-1) is tolerated because
// folding collapses adjacent real pages onto it; anything further below
// the pointer is a violation the engine charges a reclaim penalty for.
func (z *znsState) noteWrite(lp int64) (violation bool) {
	zi := lp / z.zonePages
	off := lp % z.zonePages
	switch {
	case off >= z.wp[zi]:
		z.wp[zi] = off + 1
	case off >= z.wp[zi]-1:
		// frontier rewrite: folded duplicate, tolerated
	default:
		z.c.WPViolations++
		return true
	}
	return false
}

// noteTrim applies reset-as-erase: every zone fully covered by the
// trimmed span [firstLP, firstLP+nPages) has its write pointer reset.
// The per-page invalidation (stale-page accounting, GC credit) is done
// separately by ftl.trimPage.
func (z *znsState) noteTrim(firstLP, nPages int64) {
	zones := int64(len(z.wp))
	firstZone := (firstLP + z.zonePages - 1) / z.zonePages
	endZone := (firstLP + nPages) / z.zonePages // exclusive
	for zi := firstZone; zi < endZone; zi++ {
		i := zi % zones
		if z.wp[i] != 0 {
			z.wp[i] = 0
			z.c.ZoneResets++
		}
	}
}

// reset clears the write pointers. The engine calls it between the
// warm-up and measured sweeps: both sweeps replay the same trace, so
// carrying warm-up pointers over would turn every measured write into a
// stale rewrite. Slot assignments are kept — they are placement state,
// like block occupancy.
func (z *znsState) reset() { clear(z.wp) }
