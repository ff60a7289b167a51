package core

import (
	"encoding/json"
	"errors"
	"path/filepath"

	"autoblox/internal/autodb"
	"autoblox/internal/kvstore"
	"autoblox/internal/obs"
)

// Registry metric names recorded by a persistent simulation cache.
const (
	MetricPersistHits   = "cache_persist_hits_total"
	MetricPersistMisses = "cache_persist_misses_total"
	// MetricPersistCorrupt counts records that failed to decode (plus
	// torn log tails truncated at open). Corrupt entries are deleted and
	// re-simulated, never returned.
	MetricPersistCorrupt = "cache_persist_corrupt_records_total"
)

// persistCacheFile is the log file name inside the cache directory.
const persistCacheFile = "simcache.kv"

// PersistentCache is a durable (configuration, trace) → Perf store
// shared across process restarts: a validator consulting it re-simulates
// nothing a previous run already measured, even after a crash. It is
// backed by the append-only kvstore log, whose per-record CRCs and
// torn-tail truncation make a kill -9 mid-write lose at most the record
// being appended.
//
// Keys embed the search-space signature, so caches survive space edits
// safely: a changed space changes the signature and every old entry
// simply stops matching. Only successful measurements are ever written;
// errors are never cached (matching the in-memory memo cache contract).
type PersistentCache struct {
	store *kvstore.Store
	// One counter per cache event: reg's series when the cache was
	// opened with a registry, a private counter otherwise.
	hits, misses, corrupt *obs.Counter
}

// OpenPersistentCache opens (or creates) the cache under dir. Torn
// tails from a previous crash are truncated and counted as corrupt
// records. reg, when non-nil, carries the hit, miss and corrupt
// counters (MetricPersist*).
func OpenPersistentCache(dir string, reg *obs.Registry) (*PersistentCache, error) {
	st, err := kvstore.Open(filepath.Join(dir, persistCacheFile))
	if err != nil {
		return nil, err
	}
	p := &PersistentCache{
		store:   st,
		hits:    obs.CounterOf(reg, MetricPersistHits),
		misses:  obs.CounterOf(reg, MetricPersistMisses),
		corrupt: obs.CounterOf(reg, MetricPersistCorrupt),
	}
	p.corrupt.Add(st.CorruptRecords())
	return p, nil
}

// persistKey builds the versioned content address of one measurement.
// The "v1|" prefix allows future encoding changes to coexist in one
// log; sig pins the search space the configuration key is relative to.
func persistKey(sig, cfgKey, name string) string {
	return "v1|" + sig + "|" + cfgKey + "|" + name
}

// Get looks up a prior measurement. ok is false on a miss. A record
// that fails to decode is deleted, counted as corrupt, and reported as
// a miss — the caller re-simulates and overwrites it.
func (p *PersistentCache) Get(sig, cfgKey, name string) (autodb.Perf, bool) {
	if p == nil {
		return autodb.Perf{}, false
	}
	key := persistKey(sig, cfgKey, name)
	raw, err := p.store.Get(key)
	if err != nil {
		if !errors.Is(err, kvstore.ErrNotFound) {
			obs.RecordEvent("warn-persist-cache", "key", key, "err", err.Error())
		}
		p.misses.Inc()
		return autodb.Perf{}, false
	}
	var perf autodb.Perf
	if err := json.Unmarshal(raw, &perf); err != nil {
		// CRC passed but the payload is not a Perf document — written by
		// an incompatible version or flipped bits the checksum missed.
		// Drop it so the slot can be refilled with a fresh simulation.
		p.corrupt.Inc()
		obs.RecordEvent("persist-cache-corrupt", "key", key, "err", err.Error())
		_ = p.store.Delete(key)
		p.misses.Inc()
		return autodb.Perf{}, false
	}
	p.hits.Inc()
	return perf, true
}

// Put durably records one successful measurement. Write failures are
// reported but non-fatal to the caller's measurement: the result is
// already in hand, only its durability is lost.
func (p *PersistentCache) Put(sig, cfgKey, name string, perf autodb.Perf) {
	if p == nil {
		return
	}
	raw, err := json.Marshal(perf)
	if err != nil {
		obs.RecordEvent("warn-persist-cache", "key", persistKey(sig, cfgKey, name), "err", err.Error())
		return
	}
	if err := p.store.Put(persistKey(sig, cfgKey, name), raw); err != nil {
		obs.RecordEvent("warn-persist-cache", "key", persistKey(sig, cfgKey, name), "err", err.Error())
	}
}

// PersistentCacheStats is a point-in-time snapshot of the cache's
// always-on counters.
type PersistentCacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Corrupt int64 `json:"corrupt"`
	Entries int   `json:"entries"`
}

// Stats snapshots the cache counters. Safe on a nil cache.
func (p *PersistentCache) Stats() PersistentCacheStats {
	if p == nil {
		return PersistentCacheStats{}
	}
	return PersistentCacheStats{
		Hits:    p.hits.Value(),
		Misses:  p.misses.Value(),
		Corrupt: p.corrupt.Value(),
		Entries: p.store.Len(),
	}
}

// Compact rewrites the backing log keeping only live records.
func (p *PersistentCache) Compact() error {
	if p == nil {
		return nil
	}
	return p.store.Compact()
}

// Close syncs and closes the backing store. Safe on a nil cache.
func (p *PersistentCache) Close() error {
	if p == nil {
		return nil
	}
	return p.store.Close()
}
