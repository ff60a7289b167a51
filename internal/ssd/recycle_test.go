package ssd

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// drainCachePools empties both cache pools, so the next simulation
// builds its caches fresh.
func drainCachePools() {
	for _, pool := range []*sync.Pool{&cmtPool, &dataCachePool} {
		for pool.Get() != nil {
		}
	}
}

// TestRecycledCachesMatchFresh: a simulation whose caches are built on
// a finished simulation's arrays returns the Result it returns on fresh
// caches. The devices run largest caches first, so each recycled index
// is longer than, and the node array holds more than, what the next
// device needs; their caches fill and evict, hold dirty lines past the
// proactive-flush threshold and drop trimmed lines. The second pass
// runs in sequence, the third 4 at a time.
func TestRecycledCachesMatchFresh(t *testing.T) {
	tr := workload.MustGenerate(workload.FIU, workload.Options{Requests: 3000, Seed: 11, TrimRatio: 0.05})
	var devices []DeviceParams
	for _, size := range []struct{ cmt, data int64 }{{1 << 20, 2 << 20}, {32 << 10, 512 << 10}, {4 << 10, 64 << 10}, {1 << 10, 16 << 10}} {
		for pol := range cachePolicyTable {
			p := smallDevice()
			p.CMTBytes, p.DataCacheBytes = size.cmt, size.data
			p.CachePolicy = CachePolicy(pol)
			p.CacheLineBytes = 4096
			p.WriteBufferFlushPct = 30
			devices = append(devices, p)
		}
	}
	run := func(p DeviceParams) *Result {
		sim, err := NewSimulator(p)
		if err != nil {
			t.Error(err)
			return nil
		}
		res, err := sim.Run(tr)
		if err != nil {
			t.Error(err)
		}
		return res
	}
	fresh := make([]*Result, len(devices))
	for i, p := range devices {
		drainCachePools()
		fresh[i] = run(p)
	}
	check := func(pass string, i int, got *Result) {
		if !reflect.DeepEqual(got, fresh[i]) {
			p := devices[i]
			t.Errorf("%s: CMT %d B, data cache %d B, %s: recycled result differs from fresh:\n got  %+v\n want %+v",
				pass, p.CMTBytes, p.DataCacheBytes, p.CachePolicy, got, fresh[i])
		}
	}
	for i, p := range devices {
		check("sequential", i, run(p))
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4)
	for i, p := range devices {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			check("concurrent", i, run(p))
		}()
	}
	wg.Wait()
}

// TestResidentCMTSkipMatchesLookups: when warm-up leaves every mapping
// region the trace touches in the CMT, the measured pass counts each
// mapping access as a hit without looking it up, and that must give the
// Result the lookups give. A CMT of exactly the trace's regions fills
// during warm-up, so the engine keeps looking up (all hits); one entry
// more and it skips. One entry fewer evicts, so the measured pass must
// look up and miss. The trace merges requests and carries TRIMs and
// stream tags.
func TestResidentCMTSkipMatchesLookups(t *testing.T) {
	tr := workload.MustGenerate(workload.FIU, workload.Options{Requests: 3000, Seed: 11, TrimRatio: 0.05, Streams: 3})
	for _, ifc := range []HostIfc{IfcConventional, IfcZNS, IfcMultiStream} {
		base := smallDevice()
		base.HostIfcModel = ifc
		base.ZoneSizeMB = 1
		base.IOMergingEnabled = true
		// The trace's regions: a warm-up on a CMT too large to fill.
		probe := warmedEngine(t, base, tr)
		regions := int64(probe.cmt.len())
		if regions >= int64(probe.cmt.capacity) {
			t.Fatalf("%s: the probe's CMT filled (%d regions)", ifc, regions)
		}
		// Device energy counts every DRAM byte, so the CMT's bytes come
		// out of the data cache's slack below its next whole line: both
		// caches' entry counts are as asked and the DRAM total is fixed.
		entry := int64(base.CMTEntryBytes) * probe.ftl.capScale
		withCMT := func(entries int64) DeviceParams {
			p := base
			p.CMTBytes = entries * entry
			p.DataCacheBytes += (regions + 1 - entries) * entry
			return p
		}
		full, resident, short := withCMT(regions), withCMT(regions+1), withCMT(regions-1)
		for _, c := range []struct {
			name string
			p    DeviceParams
			want bool
		}{{"full", full, false}, {"resident", resident, true}, {"short", short, false}} {
			e := warmedEngine(t, c.p, tr)
			if e.cmtResident != c.want {
				t.Fatalf("%s, %s CMT: cmtResident = %v, want %v", ifc, c.name, e.cmtResident, c.want)
			}
			if e.cache.capacity != probe.cache.capacity {
				t.Fatalf("%s, %s CMT: data cache of %d entries, want %d", ifc, c.name, e.cache.capacity, probe.cache.capacity)
			}
		}
		got, want := runTrace(t, resident, tr), runTrace(t, full, tr)
		if got.CMTMisses != 0 || got.MappingReads != 0 {
			t.Fatalf("%s: resident CMT measured %d misses, %d mapping reads", ifc, got.CMTMisses, got.MappingReads)
		}
		if got.CMTHits == 0 || got.MergedRequests == 0 || got.TrimmedPages == 0 {
			t.Fatalf("%s: the trace exercised too little: %d CMT hits, %d merges, %d trimmed pages",
				ifc, got.CMTHits, got.MergedRequests, got.TrimmedPages)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: skipping the CMT changed the result:\n skip    %+v\n lookups %+v", ifc, got, want)
		}
		if res := runTrace(t, short, tr); res.CMTMisses == 0 {
			t.Fatalf("%s: a CMT one entry short of the trace's regions never missed", ifc)
		}
	}
}

// warmedEngine returns an engine for p after its warm-up over tr.
func warmedEngine(t *testing.T, p DeviceParams, tr *trace.Trace) *engine {
	t.Helper()
	e, err := newEngine(&p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.warmup(context.Background(), tr.Source()); err != nil {
		t.Fatal(err)
	}
	return e
}
