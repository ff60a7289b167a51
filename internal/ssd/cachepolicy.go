package ssd

import (
	"math/bits"
	"sync"
)

// CachePolicy selects the data-cache replacement policy.
type CachePolicy uint8

const (
	// CacheLRU evicts the least-recently-used entry.
	CacheLRU CachePolicy = iota
	// CacheFIFO evicts in insertion order.
	CacheFIFO
	// CacheCFLRU prefers evicting clean entries over dirty ones.
	CacheCFLRU
	// CacheCLOCK approximates LRU with a second-chance sweep over a
	// reference bit, the classic low-overhead CLOCK algorithm.
	CacheCLOCK
)

// cacheReplacementPolicy decides how dataCache entries age and which
// one is displaced when the cache is full. The cache owns the node list
// and the index; the policy only orders the list. Entries are named by
// their node index.
type cacheReplacementPolicy interface {
	// touched refreshes node n after a hit (read or overwrite).
	touched(d *dataCache, n int32)
	// pickEvict chooses the node to displace; 0 means evict nothing.
	pickEvict(d *dataCache) int32
}

// cachePolicyTable is the single source of truth for the cache
// replacement domain: row order defines the wire value. To add a
// policy, append a row and implement its type below.
var cachePolicyTable = []policyEntry[cacheReplacementPolicy]{
	CacheLRU:   {name: "LRU", doc: "evict least recently used", make: func(*DeviceParams) cacheReplacementPolicy { return lruCache{} }},
	CacheFIFO:  {name: "FIFO", doc: "evict in insertion order", make: func(*DeviceParams) cacheReplacementPolicy { return fifoCache{} }},
	CacheCFLRU: {name: "CFLRU", doc: "LRU preferring clean pages", make: func(*DeviceParams) cacheReplacementPolicy { return cflruCache{} }},
	CacheCLOCK: {name: "CLOCK", doc: "second-chance approximation of LRU", make: func(*DeviceParams) cacheReplacementPolicy { return clockCache{} }},
}

var cachePolicies = domainOf("cache policy", cachePolicyTable)

// String returns the policy's registry name.
func (c CachePolicy) String() string { return cachePolicies.name(uint8(c)) }

// --- DRAM caches: the data cache and the cached mapping table. ---

// dataCache simulates a controller DRAM cache. The data cache keys it by
// logical page with a pluggable replacement policy; the cached mapping
// table (newCMT) keys it by mapping region under LRU.
//
// The cache holds no pointers, so the GC never scans it. Its entries are
// nodes of one slice, kept in recency order by a doubly linked list of
// node indices; node 0 is the list's sentinel, so nodes[0].next is the
// most recent entry and nodes[0].prev the least recent, and the cache
// holds len(nodes)-1 entries. An open-addressing index maps a key to its
// node. Keys are logical pages or mapping regions, which newFTL bounds
// below 2^31 (maxLogicalPages).
type dataCache struct {
	capacity int
	pol      cacheReplacementPolicy
	nodes    []cacheNode
	index    []cacheSlot // power-of-two length, at most half full
	shift    uint8       // 32 - log2(len(index)), for hashing
	dirty    int
	// cleanTail is where flushOldestDirty resumes: every node older
	// than it is clean. 0 claims nothing, and the scan starts at the
	// back of the list.
	cleanTail int32
}

type cacheNode struct {
	lp         int32
	prev, next int32
	dirty      bool
	ref        bool // CLOCK reference bit
}

// cacheSlot is one index slot; node 0 (the sentinel) marks it empty.
type cacheSlot struct {
	key, node int32
}

// minIndexBits sizes a new cache's index: 16 slots, grown by doubling.
const minIndexBits = 4

// cmtPool and dataCachePool hold the caches of finished simulations, one
// pool per cache kind, so the next simulation starts on the arrays its
// predecessor already grew instead of regrowing them from 16 slots.
var cmtPool, dataCachePool sync.Pool

// recycledCache returns an empty cache of capEntries entries, built on
// a cache from pool when it holds one.
func recycledCache(pool *sync.Pool, capEntries int, pol cacheReplacementPolicy) *dataCache {
	if d, ok := pool.Get().(*dataCache); ok {
		d.reset(capEntries, pol)
		return d
	}
	return newCache(capEntries, pol)
}

// newDataCache sizes the DRAM data cache; scale keeps its coverage of
// the simulated space equal to the real cache's coverage of the device.
func newDataCache(p *DeviceParams, scale int64) *dataCache {
	line := int64(p.CacheLineBytes)
	if line < 512 {
		line = int64(p.PageSizeBytes)
	}
	return recycledCache(&dataCachePool, int(p.DataCacheBytes/line/scale), cachePolicyTable[p.CachePolicy].make(p))
}

// newCMT sizes the DFTL-style cached mapping table: an LRU dataCache
// keyed by mapping region (the engine divides a logical page by its
// region granularity). A miss costs a flash read of the mapping page and
// a dirty eviction a mapping program, both charged by the engine. scale
// keeps CMT coverage of the simulated space equal to the real CMT's
// coverage of the device.
func newCMT(p *DeviceParams, scale int64) *dataCache {
	return recycledCache(&cmtPool, int(p.CMTBytes/int64(p.CMTEntryBytes)/scale), lruCache{})
}

// newCache returns an empty cache of capEntries entries, at least one.
// Nodes and index grow with the entries, so a large cache a trace never
// fills costs only what it holds.
func newCache(capEntries int, pol cacheReplacementPolicy) *dataCache {
	d := &dataCache{nodes: make([]cacheNode, 1), index: make([]cacheSlot, 1<<minIndexBits)}
	d.reset(capEntries, pol)
	return d
}

// reset empties d for reuse as a cache of capEntries entries under pol,
// keeping its arrays. The index keeps its length, up to the length a
// full cache of capEntries needs: which entry is evicted depends only on
// the recency list, never on the index size.
func (d *dataCache) reset(capEntries int, pol cacheReplacementPolicy) {
	capEntries = max(capEntries, 1)
	n := cap(d.index)
	for n > 1<<minIndexBits && n/2 >= 2*capEntries {
		n /= 2
	}
	clear(d.index[:n])
	*d = dataCache{
		capacity: capEntries,
		pol:      pol,
		nodes:    append(d.nodes[:0], cacheNode{}),
		index:    d.index[:n],
		shift:    uint8(32 - bits.TrailingZeros(uint(n))),
	}
}

// len reports the number of cached entries.
func (d *dataCache) len() int { return len(d.nodes) - 1 }

// home is key's preferred index slot (Fibonacci hashing).
func (d *dataCache) home(key int32) int {
	return int(uint32(key) * 0x9E3779B9 >> d.shift)
}

// find returns key's index slot and node, or, when key is absent, the
// empty slot that ends its probe run and node 0.
func (d *dataCache) find(key int32) (slot int, node int32) {
	mask := len(d.index) - 1
	for i := d.home(key); ; i = (i + 1) & mask {
		s := d.index[i]
		if s.node == 0 || s.key == key {
			return i, s.node
		}
	}
}

// unindex empties slot i by backward shift: each later entry of the
// probe run whose home does not lie strictly after the hole moves into
// it, so lookups need no tombstones.
func (d *dataCache) unindex(i int) {
	mask := len(d.index) - 1
	for j := (i + 1) & mask; d.index[j].node != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if i lies on its
		// probe path, i.e. cyclically within [home, j).
		if (j-d.home(d.index[j].key))&mask >= (j-i)&mask {
			d.index[i] = d.index[j]
			i = j
		}
	}
	d.index[i] = cacheSlot{}
}

// grow doubles the index and re-inserts every entry.
func (d *dataCache) grow() {
	d.index = make([]cacheSlot, 2*len(d.index))
	d.shift--
	for n := int32(1); n < int32(len(d.nodes)); n++ {
		i, _ := d.find(d.nodes[n].lp)
		d.index[i] = cacheSlot{key: d.nodes[n].lp, node: n}
	}
}

// unlink takes node n out of the recency list. When n is the
// clean-tail cursor, the cursor moves to n's newer neighbour: the nodes
// older than that neighbour are then the ones older than n, all clean.
func (d *dataCache) unlink(n int32) {
	nd := &d.nodes[n]
	if d.cleanTail == n {
		d.cleanTail = nd.prev
	}
	d.nodes[nd.prev].next = nd.next
	d.nodes[nd.next].prev = nd.prev
}

// pushFront links node n in as the most recent entry.
func (d *dataCache) pushFront(n int32) {
	head := d.nodes[0].next
	d.nodes[n].prev, d.nodes[n].next = 0, head
	d.nodes[head].prev = n
	d.nodes[0].next = n
}

// moveToFront makes node n the most recent entry.
func (d *dataCache) moveToFront(n int32) {
	if d.nodes[0].next != n {
		d.unlink(n)
		d.pushFront(n)
	}
}

// back returns the least recent node, 0 when the cache is empty.
func (d *dataCache) back() int32 { return d.nodes[0].prev }

// read reports a hit; on hit the policy refreshes the entry.
func (d *dataCache) read(lp int64) bool {
	_, n := d.find(int32(lp))
	if n != 0 {
		d.pol.touched(d, n)
	}
	return n != 0
}

// insert adds lp (dirty for writes), or refreshes it and reports a hit
// when it is already cached. When a dirty entry is displaced it returns
// that entry's logical page, which must be programmed to flash.
func (d *dataCache) insert(lp int64, dirty bool) (evictedLP int64, dirtyEvict, hit bool) {
	key := int32(lp)
	slot, n := d.find(key)
	if n != 0 {
		nd := &d.nodes[n]
		dirtied := dirty && !nd.dirty
		if dirtied {
			nd.dirty = true
			d.dirty++
		}
		d.pol.touched(d, n)
		if dirtied && d.nodes[0].next != n {
			// The policy left the newly dirty node in place, possibly
			// older than the clean-tail cursor: rescan from the back.
			d.cleanTail = 0
		}
		return 0, false, true
	}
	if dirty {
		d.dirty++
	}
	if d.len() >= d.capacity {
		if n = d.pol.pickEvict(d); n != 0 {
			// Recycle the victim's node so a miss at capacity allocates
			// nothing.
			nd := &d.nodes[n]
			evictedLP, dirtyEvict = int64(nd.lp), nd.dirty
			if nd.dirty {
				d.dirty--
			}
			old, _ := d.find(nd.lp)
			d.index[slot] = cacheSlot{key: key, node: n}
			d.unindex(old)
			*nd = cacheNode{lp: key, prev: nd.prev, next: nd.next, dirty: dirty}
			d.moveToFront(n)
			return evictedLP, dirtyEvict, false
		}
	}
	n = int32(len(d.nodes))
	d.nodes = append(d.nodes, cacheNode{lp: key, dirty: dirty})
	d.pushFront(n)
	d.index[slot] = cacheSlot{key: key, node: n}
	if 2*d.len() > len(d.index) {
		d.grow()
	}
	return 0, false, false
}

// invalidate drops lp from the cache without writing it back: a TRIM
// declares the data dead, so a dirty copy is discarded, not flushed.
// The last node moves into the freed one, keeping the nodes dense.
func (d *dataCache) invalidate(lp int64) {
	slot, n := d.find(int32(lp))
	if n == 0 {
		return
	}
	if d.nodes[n].dirty {
		d.dirty--
	}
	d.unindex(slot)
	d.unlink(n)
	last := int32(len(d.nodes) - 1)
	if n != last {
		moved := d.nodes[last]
		d.nodes[n] = moved
		d.nodes[moved.prev].next = n
		d.nodes[moved.next].prev = n
		i, _ := d.find(moved.lp)
		d.index[i].node = n
		if d.cleanTail == last {
			d.cleanTail = n
		}
	}
	d.nodes = d.nodes[:last]
}

// dirtyFraction reports the share of cache lines holding unwritten data.
func (d *dataCache) dirtyFraction() float64 {
	if d.len() == 0 {
		return 0
	}
	return float64(d.dirty) / float64(d.len())
}

// flushOldestDirty marks the least-recently-used dirty entry clean,
// returning its logical page; ok is false when no entry is dirty. The
// scan resumes at the clean-tail cursor instead of the back of the
// list, and leaves the cursor on the entry it cleaned: repeated
// write-back walks each clean entry once, not once per call.
func (d *dataCache) flushOldestDirty() (lp int64, ok bool) {
	n := d.cleanTail
	if n == 0 {
		n = d.back()
	}
	for ; n != 0; n = d.nodes[n].prev {
		if nd := &d.nodes[n]; nd.dirty {
			nd.dirty = false
			d.dirty--
			d.cleanTail = n
			return int64(nd.lp), true
		}
	}
	return 0, false
}

// lruCache implements CacheLRU.
type lruCache struct{}

func (lruCache) touched(d *dataCache, n int32) { d.moveToFront(n) }
func (lruCache) pickEvict(d *dataCache) int32  { return d.back() }

// fifoCache implements CacheFIFO: hits never reorder the queue.
type fifoCache struct{}

func (fifoCache) touched(*dataCache, int32)    {}
func (fifoCache) pickEvict(d *dataCache) int32 { return d.back() }

// cflruCache implements CacheCFLRU.
type cflruCache struct{}

func (cflruCache) touched(d *dataCache, n int32) { d.moveToFront(n) }

func (cflruCache) pickEvict(d *dataCache) int32 {
	back := d.back()
	// CFLRU: scan a window from the back for a clean entry first.
	const window = 16
	n := back
	for i := 0; i < window && n != 0; i++ {
		if !d.nodes[n].dirty {
			return n
		}
		n = d.nodes[n].prev
	}
	return back
}

// clockCache implements CacheCLOCK. Hits only set the reference bit;
// the eviction sweep walks from the cold end, granting each referenced
// entry a second chance (bit cleared, rotated to the hot end) until an
// unreferenced entry is found. Bounded by one full lap.
type clockCache struct{}

func (clockCache) touched(d *dataCache, n int32) { d.nodes[n].ref = true }

func (clockCache) pickEvict(d *dataCache) int32 {
	for i, n := 0, d.len(); i < n; i++ {
		back := d.back()
		nd := &d.nodes[back]
		if !nd.ref {
			return back
		}
		nd.ref = false
		d.moveToFront(back)
	}
	return d.back()
}
