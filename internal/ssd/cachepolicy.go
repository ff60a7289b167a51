package ssd

import "container/list"

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
// one is displaced when the cache is full. The cache owns the list and
// map bookkeeping; the policy only orders it.
type cacheReplacementPolicy interface {
	// touched refreshes el after a hit (read or overwrite).
	touched(d *dataCache, el *list.Element)
	// pickEvict chooses the entry to displace; nil means evict nothing.
	pickEvict(d *dataCache) *list.Element
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

func (c CachePolicy) valid() bool { return cachePolicies.valid(uint8(c)) }

// String returns the policy's registry name.
func (c CachePolicy) String() string { return cachePolicies.name(uint8(c)) }

// ParseCachePolicy resolves a registry name like "LRU".
func ParseCachePolicy(s string) (CachePolicy, error) {
	v, err := cachePolicies.parse(s)
	return CachePolicy(v), err
}

// CachePolicyNames returns the registered policy names in value order.
func CachePolicyNames() []string { return cachePolicies.allNames() }

// DescribeCachePolicies renders the registry as CLI flag help.
func DescribeCachePolicies() string { return cachePolicies.describe() }

// --- DRAM caches: the data cache and the cached mapping table. ---

// dataCache simulates a controller DRAM cache. The data cache keys it by
// logical page with a pluggable replacement policy; the cached mapping
// table (newCMT) keys it by mapping region under LRU.
type dataCache struct {
	capacity int
	pol      cacheReplacementPolicy
	ll       *list.List
	entries  map[int64]*list.Element
	dirty    int
}

type cacheEntry struct {
	lp    int64
	dirty bool
	ref   bool // CLOCK reference bit
}

// newDataCache sizes the DRAM data cache; scale keeps its coverage of
// the simulated space equal to the real cache's coverage of the device.
func newDataCache(p *DeviceParams, scale int64) *dataCache {
	line := int64(p.CacheLineBytes)
	if line < 512 {
		line = int64(p.PageSizeBytes)
	}
	return newCache(int(p.DataCacheBytes/line/scale), cachePolicyTable[p.CachePolicy].make(p))
}

// newCMT sizes the DFTL-style cached mapping table: an LRU dataCache
// keyed by mapping region (the engine divides a logical page by its
// region granularity). A miss costs a flash read of the mapping page and
// a dirty eviction a mapping program, both charged by the engine. scale
// keeps CMT coverage of the simulated space equal to the real CMT's
// coverage of the device.
func newCMT(p *DeviceParams, scale int64) *dataCache {
	return newCache(int(p.CMTBytes/int64(p.CMTEntryBytes)/scale), lruCache{})
}

// newCache returns an empty cache of capEntries entries, at least one.
func newCache(capEntries int, pol cacheReplacementPolicy) *dataCache {
	return &dataCache{
		capacity: max(capEntries, 1),
		pol:      pol,
		ll:       list.New(),
		entries:  make(map[int64]*list.Element),
	}
}

// read reports a hit; on hit the policy refreshes the entry.
func (d *dataCache) read(lp int64) bool {
	el, ok := d.entries[lp]
	if ok {
		d.pol.touched(d, el)
	}
	return ok
}

// insert adds lp (dirty for writes), or refreshes it and reports a hit
// when it is already cached. When a dirty entry is displaced it returns
// that entry's logical page, which must be programmed to flash.
func (d *dataCache) insert(lp int64, dirty bool) (evictedLP int64, dirtyEvict, hit bool) {
	if el, ok := d.entries[lp]; ok {
		e := el.Value.(*cacheEntry)
		if dirty && !e.dirty {
			d.dirty++
		}
		e.dirty = e.dirty || dirty
		d.pol.touched(d, el)
		return 0, false, true
	}
	if d.ll.Len() >= d.capacity {
		victim := d.pol.pickEvict(d)
		if victim != nil {
			e := victim.Value.(*cacheEntry)
			evictedLP, dirtyEvict = e.lp, e.dirty
			if e.dirty {
				d.dirty--
			}
			delete(d.entries, e.lp)
			// Recycle the victim's element and entry in place of
			// Remove+PushFront so steady-state inserts allocate nothing.
			e.lp, e.dirty, e.ref = lp, dirty, false
			d.ll.MoveToFront(victim)
			d.entries[lp] = victim
			if dirty {
				d.dirty++
			}
			return evictedLP, dirtyEvict, false
		}
	}
	d.entries[lp] = d.ll.PushFront(&cacheEntry{lp: lp, dirty: dirty})
	if dirty {
		d.dirty++
	}
	return evictedLP, dirtyEvict, false
}

// invalidate drops lp from the cache without writing it back: a TRIM
// declares the data dead, so a dirty copy is discarded, not flushed.
func (d *dataCache) invalidate(lp int64) {
	el, ok := d.entries[lp]
	if !ok {
		return
	}
	if el.Value.(*cacheEntry).dirty {
		d.dirty--
	}
	delete(d.entries, lp)
	d.ll.Remove(el)
}

// dirtyFraction reports the share of cache lines holding unwritten data.
func (d *dataCache) dirtyFraction() float64 {
	if d.ll.Len() == 0 {
		return 0
	}
	return float64(d.dirty) / float64(d.ll.Len())
}

// flushOldestDirty marks the least-recently-used dirty entry clean,
// returning its logical page; ok is false when no entry is dirty.
func (d *dataCache) flushOldestDirty() (lp int64, ok bool) {
	for el := d.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		if e.dirty {
			e.dirty = false
			d.dirty--
			return e.lp, true
		}
	}
	return 0, false
}

// lruCache implements CacheLRU.
type lruCache struct{}

func (lruCache) touched(d *dataCache, el *list.Element) { d.ll.MoveToFront(el) }
func (lruCache) pickEvict(d *dataCache) *list.Element   { return d.ll.Back() }

// fifoCache implements CacheFIFO: hits never reorder the queue.
type fifoCache struct{}

func (fifoCache) touched(*dataCache, *list.Element)    {}
func (fifoCache) pickEvict(d *dataCache) *list.Element { return d.ll.Back() }

// cflruCache implements CacheCFLRU.
type cflruCache struct{}

func (cflruCache) touched(d *dataCache, el *list.Element) { d.ll.MoveToFront(el) }

func (cflruCache) pickEvict(d *dataCache) *list.Element {
	back := d.ll.Back()
	// CFLRU: scan a window from the back for a clean entry first.
	const window = 16
	el := back
	for i := 0; i < window && el != nil; i++ {
		if !el.Value.(*cacheEntry).dirty {
			return el
		}
		el = el.Prev()
	}
	return back
}

// clockCache implements CacheCLOCK. Hits only set the reference bit;
// the eviction sweep walks from the cold end, granting each referenced
// entry a second chance (bit cleared, rotated to the hot end) until an
// unreferenced entry is found. Bounded by one full lap.
type clockCache struct{}

func (clockCache) touched(d *dataCache, el *list.Element) { el.Value.(*cacheEntry).ref = true }

func (clockCache) pickEvict(d *dataCache) *list.Element {
	for i, n := 0, d.ll.Len(); i < n; i++ {
		back := d.ll.Back()
		e := back.Value.(*cacheEntry)
		if !e.ref {
			return back
		}
		e.ref = false
		d.ll.MoveToFront(back)
	}
	return d.ll.Back()
}
