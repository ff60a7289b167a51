package ssd

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"autoblox/internal/workload"
)

// Every policy domain must round-trip name <-> value through the
// registry, expose unique names, and reject unknown names with an error
// (never a silent default).
func TestPolicyRegistryRoundTrips(t *testing.T) {
	for i, name := range gcPolicies.allNames() {
		v, err := gcPolicies.parse(name)
		if err != nil || v != uint8(i) {
			t.Fatalf("gcPolicies.parse(%q) = %v, %v; want %d", name, v, err, i)
		}
		if GCPolicy(i).String() != name {
			t.Fatalf("GCPolicy(%d).String() = %q, want %q", i, GCPolicy(i).String(), name)
		}
	}
	for i, name := range cachePolicies.allNames() {
		v, err := cachePolicies.parse(name)
		if err != nil || v != uint8(i) {
			t.Fatalf("cachePolicies.parse(%q) = %v, %v; want %d", name, v, err, i)
		}
		if CachePolicy(i).String() != name {
			t.Fatalf("CachePolicy(%d).String() = %q, want %q", i, CachePolicy(i).String(), name)
		}
	}
	for i, name := range allocSchemes.allNames() {
		v, err := allocSchemes.parse(name)
		if err != nil || v != uint8(i) {
			t.Fatalf("allocSchemes.parse(%q) = %v, %v; want %d", name, v, err, i)
		}
	}
	for i, name := range interfaces.allNames() {
		v, err := ParseInterface(name)
		if err != nil || v != Interface(i) {
			t.Fatalf("ParseInterface(%q) = %v, %v; want %d", name, v, err, i)
		}
	}
	for i, name := range flashTypes.allNames() {
		v, err := ParseFlashType(name)
		if err != nil || v != FlashType(i) {
			t.Fatalf("ParseFlashType(%q) = %v, %v; want %d", name, v, err, i)
		}
	}
	for _, lists := range [][]string{gcPolicies.allNames(), cachePolicies.allNames(), allocSchemes.allNames(), interfaces.allNames(), flashTypes.allNames(), hostIfcs.allNames()} {
		// A domain's wire value is a uint8 row index.
		if len(lists) < 1 || len(lists) > 256 {
			t.Fatalf("registry table has %d rows, want 1-256: %v", len(lists), lists)
		}
		seen := map[string]bool{}
		for _, n := range lists {
			if n == "" || seen[n] {
				t.Fatalf("empty or duplicate registry name %q in %v", n, lists)
			}
			seen[n] = true
		}
	}
	if _, err := gcPolicies.parse("oracle"); err == nil {
		t.Fatal("unknown gc policy accepted")
	}
	if _, err := cachePolicies.parse("MRU"); err == nil {
		t.Fatal("unknown cache policy accepted")
	}
	// The error message lists the valid names for the operator.
	_, err := gcPolicies.parse("nope")
	if err == nil || !strings.Contains(err.Error(), "costbenefit") {
		t.Fatalf("parse error should list valid names, got %v", err)
	}
}

// TestPolicyDomainRejectsCaseTwins: names match without regard to case,
// so a domain whose names differ only in case cannot be built.
func TestPolicyDomainRejectsCaseTwins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newPolicyDomain accepted LRU and lru in one domain")
		}
	}()
	newPolicyDomain("cache policy", []string{"LRU", "lru"}, []string{"", ""})
}

func TestDescribeHelpersListPolicies(t *testing.T) {
	help := DescribeFields()
	for _, want := range []string{"greedy (fewest valid pages first)", "fifo", "costbenefit",
		"LRU", "CLOCK", "second-chance", "plane_alloc_scheme: CWDP"} {
		if !strings.Contains(help, want) {
			t.Fatalf("DescribeFields() = %q missing %q", help, want)
		}
	}
}

func TestValidateRejectsUnknownPolicyValues(t *testing.T) {
	bad := []func(*DeviceParams){
		func(p *DeviceParams) { p.GCPolicy = GCPolicy(99) },
		func(p *DeviceParams) { p.CachePolicy = CachePolicy(99) },
		func(p *DeviceParams) { p.HostInterface = Interface(9) },
		func(p *DeviceParams) { p.FlashType = FlashType(9) },
		func(p *DeviceParams) { p.PlaneAllocScheme = AllocScheme(200) },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: out-of-domain policy value accepted", i)
		}
	}
}

// fullBlock force-writes a block's GC-relevant state for victim-policy
// unit tests.
func fullBlock(f *ftl, fp *flashPlane, i, valid int32, seq int64, erases int32) {
	b := &fp.blocks[i]
	b.pages = make([]int32, f.pagesPerBlock)
	for s := range b.pages {
		b.pages[s] = -1
	}
	b.writePtr = f.pagesPerBlock
	b.valid = valid
	b.allocSeq = seq
	b.eraseCount = erases
}

// Cost-benefit must prefer an old block with slightly more valid pages
// over a young sparse one (the LFS rule greedy cannot express), and
// among otherwise equal candidates must spare the worn block.
func TestCostBenefitVictimAgeAndWear(t *testing.T) {
	f := newTestFTL(t, func(p *DeviceParams) { p.GCPolicy = GCCostBenefit })
	fp := &f.planes[0]
	fp.allocSeq = 60
	fullBlock(f, fp, 1, 12, 1, 0)  // old, slightly more valid
	fullBlock(f, fp, 2, 10, 55, 0) // young, sparser
	if got := f.pickVictim(fp); got != 1 {
		t.Fatalf("cost-benefit picked block %d, want the old block 1", got)
	}
	if got := (greedyVictim{}).pickVictim(f, fp); got != 2 {
		t.Fatalf("greedy picked block %d, want the sparser block 2 (contrast case broken)", got)
	}

	// Wear discount: same age and utilization, very different wear.
	f2 := newTestFTL(t, func(p *DeviceParams) { p.GCPolicy = GCCostBenefit })
	fp2 := &f2.planes[0]
	fp2.allocSeq = 20
	fullBlock(f2, fp2, 1, 10, 5, 1000)
	fullBlock(f2, fp2, 2, 10, 5, 0)
	if got := f2.pickVictim(fp2); got != 2 {
		t.Fatalf("cost-benefit picked worn block %d, want the fresh block 2", got)
	}

	// Fully-valid blocks are never victims.
	f3 := newTestFTL(t, func(p *DeviceParams) { p.GCPolicy = GCCostBenefit })
	fp3 := &f3.planes[0]
	fullBlock(f3, fp3, 1, f3.pagesPerBlock, 1, 0)
	if got := f3.pickVictim(fp3); got != -1 {
		t.Fatalf("cost-benefit picked fully-valid block %d, want -1", got)
	}
}

// CLOCK grants referenced entries a second chance: a read sets the
// reference bit, and the eviction sweep skips that entry once,
// displacing the first unreferenced one instead.
func TestClockSecondChance(t *testing.T) {
	p := DefaultParams()
	p.CachePolicy = CacheCLOCK
	p.DataCacheBytes = 4 * int64(p.CacheLineBytes)
	d := newDataCache(&p, 1)
	if d.capacity != 4 {
		t.Fatalf("capacity = %d, want 4", d.capacity)
	}
	for lp := int64(1); lp <= 4; lp++ {
		d.insert(lp, false)
	}
	if !d.read(1) {
		t.Fatal("warm entry missed")
	}
	evicted, _, _ := d.insert(5, false)
	if evicted != 2 {
		t.Fatalf("evicted lp %d, want 2 (1 was referenced and spared)", evicted)
	}
	if !d.read(1) || d.read(2) {
		t.Fatal("reference bit not honored: 1 should survive, 2 should be gone")
	}
	// All referenced: the sweep clears every bit and still evicts.
	for lp := int64(3); lp <= 5; lp++ {
		d.read(lp)
	}
	if !d.contains(1) {
		t.Fatal("setup lost entry 1")
	}
	d.insert(6, false)
	if d.len() != d.capacity {
		t.Fatalf("cache holds %d entries, want %d", d.len(), d.capacity)
	}
}

// TestLRUInclusion checks the LRU stack property: on the same stream of
// reads and mixed clean/dirty inserts, an LRU dataCache of capacity c+k
// always holds every key the capacity-c cache holds, so it never gets
// fewer hits. The CMT and the LRU data cache are both this type, so the
// property covers CMTCapacity and DataCacheSize alike.
func TestLRUInclusion(t *testing.T) {
	builders := map[string]func(entries int) *dataCache{
		"CMT": func(n int) *dataCache {
			p := DefaultParams()
			p.CMTBytes = int64(n * p.CMTEntryBytes)
			return newCMT(&p, 1)
		},
		"DataCache": func(n int) *dataCache {
			p := DefaultParams()
			p.CachePolicy = CacheLRU
			p.DataCacheBytes = int64(n * p.CacheLineBytes)
			return newDataCache(&p, 1)
		},
	}
	for name, build := range builders {
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c, k := 1+rng.Intn(32), 1+rng.Intn(32)
			keys := int64(c + k + rng.Intn(96))
			small, large := build(c), build(c+k)
			if small.capacity != c || large.capacity != c+k {
				t.Fatalf("%s: capacities %d/%d, want %d/%d", name, small.capacity, large.capacity, c, c+k)
			}
			var smallHits, largeHits int
			for i := 0; i < 5000; i++ {
				key := rng.Int63n(keys)
				var hs, hl bool
				if rng.Intn(4) == 0 {
					hs, hl = small.read(key), large.read(key)
				} else {
					dirty := rng.Intn(2) == 0
					_, _, hs = small.insert(key, dirty)
					_, _, hl = large.insert(key, dirty)
				}
				if hs && !hl {
					t.Fatalf("%s seed %d step %d: key %d hit at capacity %d but missed at %d", name, seed, i, key, c, c+k)
				}
				if hs {
					smallHits++
				}
				if hl {
					largeHits++
				}
			}
			for key := int64(0); key < keys; key++ {
				if small.contains(key) && !large.contains(key) {
					t.Fatalf("%s seed %d: key %d cached at capacity %d but not at %d", name, seed, key, c, c+k)
				}
			}
			if largeHits < smallHits {
				t.Fatalf("%s seed %d: %d hits at capacity %d < %d at %d", name, seed, largeHits, c+k, smallHits, c)
			}
		}
	}
}

// TestLRUInclusionWholeSimulation lifts TestLRUInclusion to whole
// simulations: on the same trace, a larger LRU data cache never reports
// fewer Result.CacheHits. Cache decisions follow the request order, not
// the simulated timing, so the stack property must survive everything
// around the cache: flushes, GC and the CMT.
func TestLRUInclusionWholeSimulation(t *testing.T) {
	cats := workload.Studied()
	if testing.Short() {
		cats = cats[:3]
	}
	devices := map[string]DeviceParams{"intel750": Intel750(), "small": smallDevice()}
	for _, cat := range cats {
		tr := testTrace(cat, 2000)
		for name, base := range devices {
			for _, readCache := range []bool{false, true} {
				prev, prevMiB := int64(-1), 0
				for _, mib := range []int{1, 2, 4, 8, 16, 64, 256} {
					p := base
					p.CachePolicy = CacheLRU
					p.ReadCacheEnabled = readCache
					p.DataCacheBytes = int64(mib) << 20
					hits := runTrace(t, p, tr).CacheHits
					if hits < prev {
						t.Fatalf("%s/%s read cache %v: %d hits at %d MiB < %d at %d MiB", cat, name, readCache, hits, mib, prev, prevMiB)
					}
					prev, prevMiB = hits, mib
				}
			}
		}
	}
}

// Every registered GC policy must drive a full simulation with real GC
// pressure.
func TestGCPoliciesAllSimulate(t *testing.T) {
	tr := workload.MustGenerate(workload.FIU, workload.Options{Requests: 8000, Seed: 11})
	for i := range gcPolicies.allNames() {
		pol := GCPolicy(i)
		p := smallDevice()
		p.GCPolicy = pol
		res := runTrace(t, p, tr)
		if res.AvgLatency <= 0 || res.GCRuns == 0 {
			t.Fatalf("policy %s: AvgLatency=%v GCRuns=%d", pol, res.AvgLatency, res.GCRuns)
		}
	}
}

// BenchmarkGCVictimPolicy measures steady-state write cost per policy
// with GC in the loop (victim selection is the dominant varying cost).
func BenchmarkGCVictimPolicy(b *testing.B) {
	for i, name := range gcPolicies.allNames() {
		pol := GCPolicy(i)
		b.Run(name, func(b *testing.B) {
			p := smallDevice()
			p.GCPolicy = pol
			f, err := newFTL(&p, new(Counters))
			if err != nil {
				b.Fatal(err)
			}
			f.prefill(0.9)
			ws := f.logicalPages / 4
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.placePage(int64(i)%ws, 0)
			}
		})
	}
}

// contains reports whether key is cached, without touching it.
func (d *dataCache) contains(key int64) bool {
	_, n := d.find(int32(key))
	return n != 0
}

// refCache is a slice-ordered reference model of dataCache: order runs
// from the most to the least recent entry, and every operation is a
// linear scan, so each policy reads as its textbook definition.
type refCache struct {
	pol      CachePolicy
	capacity int
	order    []refEntry
}

type refEntry struct {
	key        int64
	dirty, ref bool
}

func (r *refCache) at(key int64) int {
	for i, e := range r.order {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (r *refCache) toFront(i int) {
	e := r.order[i]
	copy(r.order[1:i+1], r.order[:i])
	r.order[0] = e
}

func (r *refCache) touch(i int) {
	switch r.pol {
	case CacheLRU, CacheCFLRU:
		r.toFront(i)
	case CacheCLOCK:
		r.order[i].ref = true
	}
}

func (r *refCache) victim() int {
	last := len(r.order) - 1
	switch r.pol {
	case CacheCFLRU:
		for i := last; i >= 0 && i > last-16; i-- {
			if !r.order[i].dirty {
				return i
			}
		}
	case CacheCLOCK:
		for range r.order {
			if !r.order[last].ref {
				break
			}
			r.order[last].ref = false
			r.toFront(last)
		}
	}
	return last
}

func (r *refCache) read(key int64) bool {
	i := r.at(key)
	if i >= 0 {
		r.touch(i)
	}
	return i >= 0
}

func (r *refCache) insert(key int64, dirty bool) (evicted int64, dirtyEvict, hit bool) {
	if i := r.at(key); i >= 0 {
		r.order[i].dirty = r.order[i].dirty || dirty
		r.touch(i)
		return 0, false, true
	}
	if len(r.order) >= r.capacity {
		v := r.victim()
		evicted, dirtyEvict = r.order[v].key, r.order[v].dirty
		r.order = append(r.order[:v], r.order[v+1:]...)
	}
	r.order = append([]refEntry{{key: key, dirty: dirty}}, r.order...)
	return evicted, dirtyEvict, false
}

func (r *refCache) invalidate(key int64) {
	if i := r.at(key); i >= 0 {
		r.order = append(r.order[:i], r.order[i+1:]...)
	}
}

func (r *refCache) flushOldestDirty() (int64, bool) {
	for i := len(r.order) - 1; i >= 0; i-- {
		if r.order[i].dirty {
			r.order[i].dirty = false
			return r.order[i].key, true
		}
	}
	return 0, false
}

func (r *refCache) dirtyFraction() float64 {
	if len(r.order) == 0 {
		return 0
	}
	dirty := 0
	for _, e := range r.order {
		if e.dirty {
			dirty++
		}
	}
	return float64(dirty) / float64(len(r.order))
}

// cacheKeyPool returns the keys driveCache draws from: small
// sequential keys, large keys up to the int32 bound, a run of keys that
// all hash to one index slot at every index size up to 2^12, and a run
// that hashes to the last slot, so probe runs wrap past the index's end
// and deletes in them must shift entries back across it.
func cacheKeyPool() []int64 {
	const bits = 12
	home := func(key int32) int { return (&dataCache{shift: 32 - bits}).home(key) }
	var pool []int64
	for k := int64(0); k < 48; k++ {
		pool = append(pool, k, 1<<31-1-k*7919)
	}
	var same, last int
	for k := int32(0); same < 40 || last < 40; k++ {
		switch home(k) {
		case 5:
			if same < 40 {
				pool, same = append(pool, int64(k)), same+1
			}
		case 1<<bits - 1:
			if last < 40 {
				pool, last = append(pool, int64(k)), last+1
			}
		}
	}
	return pool
}

// recycledTestCache returns an empty cache of capacity entries under
// pol, built on the arrays of a larger cache that held every key of
// pool, every other one dirty, as a finished simulation hands its cache
// on: the index is longer than a fresh one and full of stale slots.
func recycledTestCache(pol CachePolicy, capacity int, pool []int64) *dataCache {
	p := DefaultParams()
	d := newCache(len(pool), cachePolicyTable[(int(pol)+1)%len(cachePolicyTable)].make(&p))
	for i, key := range pool {
		d.insert(key, i%2 == 0)
	}
	d.reset(capacity, cachePolicyTable[pol].make(&p))
	return d
}

// driveCache runs the same operations on a dataCache and on refCache,
// three bytes per operation (kind, key index low and high byte), and
// fails at the first return value, entry count or dirty fraction that
// differs, or when the final recency orders differ. It runs them on a
// fresh cache, then on one from recycledTestCache.
func driveCache(t *testing.T, pol CachePolicy, capacity int, pool []int64, ops []byte) {
	t.Helper()
	p := DefaultParams()
	driveCacheOn(t, "fresh", newCache(capacity, cachePolicyTable[pol].make(&p)), pol, pool, ops)
	driveCacheOn(t, "recycled", recycledTestCache(pol, capacity, pool), pol, pool, ops)
}

func driveCacheOn(t *testing.T, kind string, d *dataCache, pol CachePolicy, pool []int64, ops []byte) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("%s cache, policy %s, capacity %d", kind, pol, d.capacity)
		}
	}()
	ref := &refCache{pol: pol, capacity: d.capacity}
	for i := 0; i+2 < len(ops); i += 3 {
		key := pool[(int(ops[i+1])|int(ops[i+2])<<8)%len(pool)]
		var op string
		switch ops[i] % 10 {
		case 0, 1, 2:
			op = "insert clean"
			checkInsert(t, i/3, d, ref, key, false)
		case 3, 4:
			op = "insert dirty"
			checkInsert(t, i/3, d, ref, key, true)
		case 5, 6:
			op = "read"
			if hit, want := d.read(key), ref.read(key); hit != want {
				t.Fatalf("op %d: read %d = %v, reference %v", i/3, key, hit, want)
			}
		case 7, 8:
			op = "invalidate"
			d.invalidate(key)
			ref.invalidate(key)
		default:
			op = "flushOldestDirty"
			lp, ok := d.flushOldestDirty()
			wlp, wok := ref.flushOldestDirty()
			if lp != wlp || ok != wok {
				t.Fatalf("op %d: flushOldestDirty = (%d, %v), reference (%d, %v)", i/3, lp, ok, wlp, wok)
			}
		}
		if d.len() != len(ref.order) || d.dirtyFraction() != ref.dirtyFraction() {
			t.Fatalf("op %d (%s %d): %d entries, dirty fraction %v; reference %d, %v",
				i/3, op, key, d.len(), d.dirtyFraction(), len(ref.order), ref.dirtyFraction())
		}
	}
	n := d.nodes[0].next
	for i, want := range ref.order {
		got := d.nodes[n]
		if n == 0 || int64(got.lp) != want.key || got.dirty != want.dirty || got.ref != want.ref {
			t.Fatalf("recency position %d: node %d %+v, reference %+v", i, n, got, want)
		}
		if !d.contains(want.key) {
			t.Fatalf("key %d is in the list but not in the index", want.key)
		}
		n = got.next
	}
	if n != 0 {
		t.Fatalf("list is longer than the reference's %d entries", len(ref.order))
	}
}

func checkInsert(t *testing.T, step int, d *dataCache, ref *refCache, key int64, dirty bool) {
	t.Helper()
	ev, de, hit := d.insert(key, dirty)
	wev, wde, whit := ref.insert(key, dirty)
	if ev != wev || de != wde || hit != whit {
		t.Fatalf("op %d: insert %d (dirty %v) = (%d, %v, %v), reference (%d, %v, %v)", step, key, dirty, ev, de, hit, wev, wde, whit)
	}
}

// TestDataCacheMatchesReference: under every policy, the node-array
// dataCache returns what the slice-ordered reference model returns on
// seeded random operations, from capacity 1 to capacities that grow the
// index across several doublings, over keys that collide in the index
// and probe runs that wrap past its end.
func TestDataCacheMatchesReference(t *testing.T) {
	pool := cacheKeyPool()
	for pol := range cachePolicyTable {
		for _, capacity := range []int{1, 2, 7, 16, 33, 100, 300} {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
				ops := make([]byte, 3*6000)
				rng.Read(ops)
				// Draw most keys from a window of the pool at a time, so
				// the cache sees hits and runs of colliding keys.
				for i := 0; i < len(ops); i += 3 {
					k := i/3/500*40 + rng.Intn(80)
					ops[i+1], ops[i+2] = byte(k), byte(k>>8)
				}
				driveCache(t, CachePolicy(pol), capacity, pool, ops)
			}
		}
		driveCache(t, CachePolicy(pol), 64, pool, cleanTailOps())
	}
}

// cleanTailOps builds a long clean tail under a run of dirty entries,
// flushes a few of those so flushOldestDirty's clean-tail cursor sits
// above the tail, then write-hits an entry deep in the tail. FIFO and
// CLOCK leave that entry in place, older than the cursor, so the next
// flush must find it by falling back to the back of the list.
func cleanTailOps() []byte {
	const (
		insertClean = 0
		insertDirty = 3
		flush       = 9
	)
	var ops []byte
	op := func(kind byte, idx int) { ops = append(ops, kind, byte(idx), byte(idx>>8)) }
	for k := 0; k < 40; k++ {
		op(insertClean, 2*k) // pool index 2k holds key k
	}
	for k := 0; k < 20; k++ {
		op(insertDirty, 2*k+1)
	}
	for i := 0; i < 3; i++ {
		op(flush, 0)
	}
	op(insertDirty, 2*10)
	for i := 0; i < 3; i++ {
		op(flush, 0)
	}
	return ops
}

// FuzzDataCache runs the reference comparison on fuzzed operations.
func FuzzDataCache(f *testing.F) {
	f.Add(uint8(0), uint16(4), []byte{3, 1, 0, 3, 2, 0, 0, 3, 0, 9, 0, 0, 7, 1, 0})
	f.Add(uint8(2), uint16(16), bytes.Repeat([]byte{4, 130, 0, 0, 131, 0, 7, 130, 0}, 20))
	f.Add(uint8(3), uint16(9), bytes.Repeat([]byte{5, 200, 0, 0, 201, 0, 7, 202, 0, 1, 203, 0}, 20))
	pool := cacheKeyPool()
	f.Fuzz(func(t *testing.T, pol uint8, capacity uint16, ops []byte) {
		driveCache(t, CachePolicy(int(pol)%len(cachePolicyTable)), 1+int(capacity%400), pool, ops)
	})
}
