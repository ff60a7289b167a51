package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"autoblox/internal/autodb"
	"autoblox/internal/obs"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

func persistEnv(t *testing.T, dir string) (*Validator, *PersistentCache, ssdconf.Config, *trace.Trace) {
	t.Helper()
	p, err := OpenPersistentCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	tr := workload.MustGenerate(workload.Database, workload.Options{Requests: 1500, Seed: 11})
	v := NewValidatorSources(space, map[string][]trace.SourceFactory{"Database": {tr.Factory()}})
	v.Persist = p
	return v, p, space.FromDevice(ssd.Intel750()), tr
}

// TestPersistentCacheWarmRestart is the headline durability contract: a
// process restart (fresh validator, reopened cache) re-simulates
// nothing that was measured before, and the accounting law still holds
// with persist hits folded into CacheHits.
func TestPersistentCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	v, p, ref, tr := persistEnv(t, dir)
	if _, err := v.MeasureTrace(ctx, ref, "Database#0", tr.Factory()); err != nil {
		t.Fatal(err)
	}
	if _, err := v.MeasureTrace(ctx, ref, "Database#1", tr.Factory()); err != nil {
		t.Fatal(err)
	}
	if got := v.SimRuns(); got != 2 {
		t.Fatalf("cold run SimRuns = %d, want 2", got)
	}
	st := p.Stats()
	if st.Misses != 2 || st.Hits != 0 || st.Entries != 2 {
		t.Fatalf("cold cache stats = %+v, want 2 misses, 0 hits, 2 entries", st)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new validator over a reopened cache.
	v2nd, p2, ref2, tr2 := persistEnv(t, dir)
	perfA, err := v2nd.MeasureTrace(ctx, ref2, "Database#0", tr2.Factory())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2nd.MeasureTrace(ctx, ref2, "Database#1", tr2.Factory()); err != nil {
		t.Fatal(err)
	}
	if got := v2nd.SimRuns(); got != 0 {
		t.Fatalf("warm run SimRuns = %d, want 0 (all persisted)", got)
	}
	stats := v2nd.Stats()
	calls := int64(2)
	if got := stats.SimRuns + stats.CacheHits + stats.CoalescedWaits + stats.RemoteResults; got != calls {
		t.Fatalf("accounting law broken: %d + %d + %d + %d != %d",
			stats.SimRuns, stats.CacheHits, stats.CoalescedWaits, stats.RemoteResults, calls)
	}
	if st := p2.Stats(); st.Hits != 2 {
		t.Fatalf("warm cache hits = %d, want 2", st.Hits)
	}

	// The persisted value must be bit-identical to a fresh simulation.
	vClean := NewValidatorSources(ssdconf.NewSpace(ssdconf.DefaultConstraints()),
		map[string][]trace.SourceFactory{"Database": {tr.Factory()}})
	perfClean, err := vClean.MeasureTrace(ctx, ref, "Database#0", tr.Factory())
	if err != nil {
		t.Fatal(err)
	}
	if perfA != perfClean {
		t.Fatalf("persisted perf diverges from fresh simulation:\n  cached = %+v\n  fresh  = %+v", perfA, perfClean)
	}
}

// TestPersistentCacheCorruptRecord: a record whose payload fails to
// decode is never returned — it is dropped, counted, and transparently
// re-simulated and overwritten.
func TestPersistentCacheCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	v, p, ref, tr := persistEnv(t, dir)
	if _, err := v.MeasureTrace(ctx, ref, "Database#0", tr.Factory()); err != nil {
		t.Fatal(err)
	}

	// Overwrite the record in place with a valid-CRC, invalid-JSON body
	// (version skew / undetected bit rot).
	sig := v.persistSig()
	key := persistKey(sig, ref.Key(), "Database#0")
	if err := p.store.Put(key, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Get(sig, ref.Key(), "Database#0"); ok {
		t.Fatal("corrupt record must never be returned")
	}
	if st := p.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
	if p.store.Has(key) {
		t.Fatal("corrupt record should be deleted")
	}

	// A fresh validator (empty memo cache) heals the slot via re-simulation.
	v2 := NewValidatorSources(ssdconf.NewSpace(ssdconf.DefaultConstraints()),
		map[string][]trace.SourceFactory{"Database": {tr.Factory()}})
	v2.Persist = p
	if _, err := v2.MeasureTrace(ctx, ref, "Database#0", tr.Factory()); err != nil {
		t.Fatal(err)
	}
	if got := v2.SimRuns(); got != 1 {
		t.Fatalf("SimRuns after corruption = %d, want 1 re-simulation", got)
	}
	if !p.store.Has(key) {
		t.Fatal("healed record should be persisted again")
	}
}

// TestPersistentCacheNeverStoresErrors mirrors the memo cache's
// errors-never-cached contract on the durable layer.
func TestPersistentCacheNeverStoresErrors(t *testing.T) {
	dir := t.TempDir()
	v, p, ref, tr := persistEnv(t, dir)
	permanent := errors.New("disk on fire")
	factory := func() trace.Source {
		return &failingSource{Source: tr.Source(), after: 200, err: permanent}
	}
	if _, err := v.MeasureTrace(context.Background(), ref, "Database#0", factory); !errors.Is(err, permanent) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if st := p.Stats(); st.Entries != 0 {
		t.Fatalf("failed measurement persisted: %d entries", st.Entries)
	}
}

// TestPersistentCacheTornTailCounted: a torn log tail truncated at open
// is counted once, and the registry series reads what Stats does.
func TestPersistentCacheTornTailCounted(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPersistentCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Put("sig", "cfg", "Database#0", autodb.Perf{})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, persistCacheFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xBA, 0xD0}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := obs.NewRegistry()
	p, err = OpenPersistentCache(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	st := p.Stats()
	if st.Corrupt != 1 || st.Entries != 1 {
		t.Fatalf("stats after torn tail = %+v, want 1 corrupt, 1 entry", st)
	}
	if got := reg.Counter(MetricPersistCorrupt).Value(); got != st.Corrupt {
		t.Fatalf("%s = %d, Stats().Corrupt = %d", MetricPersistCorrupt, got, st.Corrupt)
	}
	if _, ok := p.Get("sig", "cfg", "Database#0"); !ok {
		t.Fatal("record before the torn tail was lost")
	}
	if got := reg.Counter(MetricPersistHits).Value(); got != p.Stats().Hits || got != 1 {
		t.Fatalf("%s = %d, Stats().Hits = %d, want 1", MetricPersistHits, got, p.Stats().Hits)
	}
}
