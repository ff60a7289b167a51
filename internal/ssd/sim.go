package ssd

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"autoblox/internal/obs"
	"autoblox/internal/trace"
)

// Result carries the measured performance and energy of one simulation.
type Result struct {
	Requests int
	// AvgLatency is the mean request latency (exact).
	AvgLatency time.Duration
	// P50/P95/P99/P999Latency are request-latency quantiles estimated
	// from a log-linear histogram of every request (conservative
	// nearest-rank upper bounds, ≤1/32 relative bucket error — see
	// obs.Histogram.Quantile).
	P50Latency  time.Duration
	P95Latency  time.Duration
	P99Latency  time.Duration
	P999Latency time.Duration
	// LatencyHistogram is the full per-request latency distribution
	// (nanosecond samples) the quantiles above are read from.
	LatencyHistogram obs.HistogramSnapshot
	// ThroughputBps is total payload bytes divided by makespan.
	ThroughputBps float64
	// IOPS is requests divided by makespan.
	IOPS float64
	// Makespan is the span from first arrival to last completion.
	Makespan time.Duration
	// EnergyJoules is the modeled total device energy over the run.
	EnergyJoules float64
	// AvgPowerWatts is EnergyJoules / Makespan.
	AvgPowerWatts float64

	// Counters are the measured pass's operation counts.
	Counters
	// WriteAmplification is (user + GC programs) / user programs.
	WriteAmplification float64
	// RetiredBlocks and FactoryBadBlocks are end-of-run device state,
	// not traffic, so they sit outside Counters and span the whole run
	// (zero when the FaultProfile is disabled).
	RetiredBlocks    int64
	FactoryBadBlocks int64
	// ChannelUtilization is the mean fraction of the makespan each
	// channel bus spent transferring data.
	ChannelUtilization float64
	// Wear summarizes block erase-count spread and projected endurance.
	Wear WearReport
}

// Counters are a simulation's operation counts over the measured pass.
// The engine owns the one instance: the FTL, the fault state and the
// ZNS state count into it through a pointer, and the warm-up boundary
// zeroes it whole, so a counter added here is measured-phase only
// without further code.
type Counters struct {
	UserReads, UserPrograms     int64
	GCReads, GCPrograms         int64
	Erases                      int64
	MappingReads, MappingWrites int64
	CacheHits, CacheMisses      int64
	CMTHits, CMTMisses          int64
	GCRuns                      int
	WearLevelSwaps              int
	// MergedRequests counts block-layer request merges (IOMergingEnabled).
	MergedRequests int64
	// ProactiveFlushes counts background dirty-cache write-backs
	// triggered by the WriteBufferFlushPct threshold.
	ProactiveFlushes int64
	// Fault-injection counters (all zero when the FaultProfile is
	// disabled).
	ProgramFailures int64
	EraseFailures   int64
	ReadRetries     int64
	ECCSoftDecodes  int64
	// Host-interface model counters (hostifc.go). UserTrims counts TRIM
	// requests; TrimmedPages counts the mapped logical pages they
	// invalidated. WPViolations and ZoneResets are zero unless the
	// device runs the ZNS model.
	UserTrims    int64
	TrimmedPages int64
	WPViolations int64
	ZoneResets   int64

	// channelBusyNS and dramAccesses feed ChannelUtilization and the
	// energy model.
	channelBusyNS int64
	dramAccesses  int64
}

// Simulator runs traces against a device configuration.
type Simulator struct {
	p DeviceParams
	// Obs, when non-nil, receives cross-run metrics: the request-latency,
	// GC-pause and channel-stall distributions and the fault counters of
	// each run's measured pass. It never influences simulation results —
	// instrumented and uninstrumented runs are bit-for-bit identical — and
	// may be shared by concurrently running simulators: each run records
	// into its own histograms and merges them into Obs once, after the
	// run.
	Obs *obs.Registry
}

// Registry metric names recorded by instrumented simulations.
const (
	MetricRequestLatency = "ssd_request_latency_ns"
	MetricGCPause        = "ssd_gc_pause_ns"
	MetricChannelStall   = "ssd_channel_stall_ns"

	MetricFaultProgramFailures = "ssd_fault_program_failures_total"
	MetricFaultEraseFailures   = "ssd_fault_erase_failures_total"
	MetricFaultReadRetries     = "ssd_fault_read_retries_total"
	MetricFaultECCSoftDecodes  = "ssd_fault_ecc_soft_decodes_total"
	MetricFaultRetiredBlocks   = "ssd_fault_retired_blocks_total"
)

// NewSimulator validates params and returns a simulator.
func NewSimulator(p DeviceParams) (*Simulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{p: p}, nil
}

// Params returns the device configuration.
func (s *Simulator) Params() DeviceParams { return s.p }

// Run simulates the trace and returns measured metrics. Each call uses
// fresh device state (including the warm-up prefill), so runs are
// independent and deterministic. Run is a thin wrapper over RunSource;
// the two paths produce bit-for-bit identical results.
func (s *Simulator) Run(tr *trace.Trace) (*Result, error) {
	return s.RunSource(tr.Source())
}

// RunSource simulates a streaming trace without ever materializing it:
// the warm-up pass and the measured pass each consume one
// Reset-separated sweep of the source, and per-run memory is O(device
// state) — independent of trace length. The source must satisfy the
// trace.Source determinism contract (two sweeps yield identical request
// sequences); generator- and file-backed sources do by construction.
func (s *Simulator) RunSource(src trace.Source) (*Result, error) {
	return s.RunSourceContext(context.Background(), src)
}

// RunSourceContext is RunSource with cooperative cancellation: the
// warm-up and measured sweeps poll ctx every 1024 requests and return
// ctx.Err() when it fires, so a per-simulation timeout or an
// interrupted tuning run stops a simulation mid-flight instead of
// waiting out the trace. Cancellation never produces a partial Result.
func (s *Simulator) RunSourceContext(ctx context.Context, src trace.Source) (*Result, error) {
	eng, err := newEngine(&s.p)
	if err != nil {
		return nil, err
	}
	defer eng.release()
	if s.Obs != nil {
		eng.gcHist, eng.stallHist = pooledHist(), pooledHist()
	}
	n, err := eng.warmup(ctx, src)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("ssd: empty trace")
	}
	src.Reset()
	if err := src.Err(); err != nil {
		return nil, fmt.Errorf("ssd: rewind for measured pass: %w", err)
	}
	res, err := eng.run(ctx, src)
	if err != nil {
		return nil, err
	}
	eng.publish(s.Obs)
	return res, nil
}

// publish folds the finished run's histograms and fault counters into
// reg (a no-op on nil). It is the one place a run writes the registry,
// so concurrent simulations never contend on it per event.
func (e *engine) publish(reg *obs.Registry) {
	reg.Histogram(MetricRequestLatency).MergeLocal(&e.latHist)
	reg.Histogram(MetricGCPause).MergeLocal(e.gcHist)
	reg.Histogram(MetricChannelStall).MergeLocal(e.stallHist)
	if fa := e.ftl.faults; fa != nil {
		reg.Counter(MetricFaultProgramFailures).Add(e.ProgramFailures)
		reg.Counter(MetricFaultEraseFailures).Add(e.EraseFailures)
		reg.Counter(MetricFaultReadRetries).Add(e.ReadRetries)
		reg.Counter(MetricFaultECCSoftDecodes).Add(e.ECCSoftDecodes)
		reg.Counter(MetricFaultRetiredBlocks).Add(fa.retiredBlocks)
	}
}

// warmup replays the trace once with timing disabled so the CMT, the
// data cache and the FTL's block occupancy reach steady state before
// measurement — the paper warms the simulator with traces before
// validation for the same reason (cold compulsory misses would otherwise
// dominate the measurement window). It returns the number of requests
// seen, so the caller can reject empty traces.
// The data cache is deliberately left cold: a sampled trace's footprint
// is far smaller than the production workload's, so warming the cache
// with the measurement trace would let configurations "win" by fitting
// the whole sample in DRAM — a hit rate the real workload could never
// see. Measured-phase cache hits therefore reflect only genuine
// intra-trace reuse.
func (e *engine) warmup(ctx context.Context, src trace.Source) (int, error) {
	e.warming = true
	defer func() { e.warming = false }()
	src.Reset()
	n := 0
	for {
		if n&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return n, err
			}
		}
		req, ok := src.Next()
		if !ok {
			break
		}
		n++
		e.servePages(req, 0)
	}
	if err := src.Err(); err != nil {
		return n, fmt.Errorf("ssd: warm-up sweep: %w", err)
	}
	if err := e.ftl.fatal; err != nil {
		return n, fmt.Errorf("%w (during warm-up)", err)
	}
	// The CMT only ever grows, so below capacity warm-up evicted
	// nothing, and it touched every region the measured pass can map.
	e.cmtResident = e.cmt.len() < e.cmt.capacity
	e.pass.reset()
	if z := e.ftl.zns; z != nil {
		// The measured pass replays the same trace; stale warm-up write
		// pointers would turn every measured write into a violation, so
		// pointer state resets while block occupancy (the point of warming
		// up) is kept.
		z.reset()
	}
	return n, nil
}

// engine is the per-run simulation state.
type engine struct {
	p     *DeviceParams
	ftl   *ftl
	cmt   *dataCache // keyed by mapping region: lp / cmtGran
	cache *dataCache

	// cmtGran is the logical pages one CMT entry covers:
	// MappingGranularity, or a whole zone on ZNS.
	cmtGran int64

	pass
	warming bool // warm-up pass: FTL/CMT state only, no data cache
	// cmtResident is set when warm-up left every mapping region it
	// touched in the CMT: every measured mapping access is then a hit
	// that moves nothing a Result reports, so it is only counted.
	cmtResident bool

	// Derived per-op costs (ns).
	readNS, progNS, eraseNS int64
	xferNS                  int64 // one page over the channel bus
	dramNS                  int64 // one page through DRAM
	eccNS, fwNS             int64
	hostCmdNS               int64
	hostBps                 float64

	// latHist is the per-run request-latency histogram Result quantiles
	// are computed from; gcHist and stallHist are the GC-pause and
	// channel-stall histograms of an instrumented run, nil (no-op)
	// otherwise. Only the engine's goroutine records them, so they take
	// the single-writer form, and publish merges them into the registry
	// after the run. Warm-up charges no timeline, so they hold the
	// measured pass only.
	latHist           obs.LocalHistogram
	gcHist, stallHist *obs.LocalHistogram

	// readBound is the longest a read waits for work queued on its plane.
	readBound int64
}

// pass is what one sweep accumulates: the op counters and the
// resource timelines (ns). The warm-up boundary zeroes it in place, so
// the measured pass starts on an idle device and counts only its own
// traffic, while device state (placement, occupancy, wear, retired
// blocks) carries over.
//
// A timeline is when its resource is free again. Two primitives write
// every one: acquire for queued work and bypass for a read's bounded
// plane wait.
type pass struct {
	Counters
	hostFree    int64   // shared host-link timeline
	channelFree []int64 // per-channel bus timeline
	planeFree   []int64 // per-plane timeline: when the plane is idle again
	zoneFree    []int64 // per-zone append-serialization timeline (ZNS only)
	timelines   []int64 // the array the three slices above share
}

func (p *pass) reset() {
	p.Counters = Counters{}
	p.hostFree = 0
	clear(p.timelines)
}

// histPool holds the GC-pause and channel-stall histograms of finished
// instrumented simulations, so the next one records into them instead
// of allocating its own.
var histPool = sync.Pool{New: func() any { return new(obs.LocalHistogram) }}

// pooledHist returns an empty histogram from histPool.
func pooledHist() *obs.LocalHistogram {
	h := histPool.Get().(*obs.LocalHistogram)
	*h = obs.LocalHistogram{}
	return h
}

// release hands the engine's caches to the pools newCMT and
// newDataCache draw from, and its histograms to histPool; the engine
// must not be used afterwards.
func (e *engine) release() {
	cmtPool.Put(e.cmt)
	dataCachePool.Put(e.cache)
	if e.gcHist != nil {
		histPool.Put(e.gcHist)
		histPool.Put(e.stallHist)
	}
	e.cmt, e.cache, e.gcHist, e.stallHist = nil, nil, nil, nil
}

func newEngine(p *DeviceParams) (*engine, error) {
	e := &engine{p: p}
	f, err := newFTL(p, &e.Counters)
	if err != nil {
		return nil, err
	}
	e.ftl = f
	e.cmt = newCMT(p, f.capScale)
	e.cache = newDataCache(p, f.capScale)
	e.cmtGran = int64(max(p.MappingGranularity, 1))
	zones := 0
	if f.zns != nil {
		// Zone-granular mapping: a ZNS device only tracks one write
		// pointer per zone, so a CMT entry covers a whole zone — the
		// model's metadata advantage over page-mapped conventional FTLs.
		e.cmtGran = f.zns.zonePages
		zones = len(f.zns.wp)
	}
	tl := make([]int64, p.Channels+len(f.planes)+zones)
	e.timelines = tl
	e.channelFree, tl = tl[:p.Channels:p.Channels], tl[p.Channels:]
	e.planeFree, e.zoneFree = tl[:len(f.planes):len(f.planes)], tl[len(f.planes):]
	e.readNS = p.ReadLatency.Nanoseconds()
	e.progNS = p.ProgramLatency.Nanoseconds()
	e.eraseNS = p.EraseLatency.Nanoseconds()
	// Out-of-order transaction scheduling lets a read bypass queued
	// programs (it waits for at most one), and program suspension bounds
	// the wait further.
	e.readBound = math.MaxInt64
	if p.TransactionSchedOOO {
		e.readBound = e.progNS
	}
	if p.SuspendEnabled {
		e.readBound = min(e.readBound, p.SuspendProgram.Nanoseconds())
	}
	e.xferNS = int64(float64(p.PageSizeBytes) / p.ChannelBandwidthBps() * 1e9)
	// DRAM move of one page: bus width × frequency.
	dramBps := float64(p.DRAMMHz) * 1e6 * float64(p.DRAMBusBits) / 8 * 2 // DDR
	e.dramNS = int64(float64(p.PageSizeBytes)/dramBps*1e9) + 300         // + access latency
	e.eccNS = p.ECCLatency.Nanoseconds()
	e.fwNS = p.FirmwareOverhead.Nanoseconds()
	e.hostBps = p.HostBandwidthBps()
	e.hostCmdNS = 25_000 // SATA: AHCI command overhead
	if p.HostInterface != SATA {
		// NVMe: 8 µs split over the queues, at least 1 µs.
		e.hostCmdNS = int64(max(8_000/max(p.QueueCount, 1), 1_000))
	}
	f.prefill(p.InitialOccupancyFrac)
	if f.fatal != nil {
		return nil, fmt.Errorf("%w (during prefill)", f.fatal)
	}
	return e, nil
}

// requestStream is the minimal pull interface the measured pass
// consumes; both trace.Source and the block-layer merge adapter
// satisfy it.
type requestStream interface {
	Next() (trace.Request, bool)
}

// run executes the measured pass over one sweep of the source. Latencies
// are folded into a running sum plus the latency histogram as they are
// produced — there is no per-request buffer, so memory stays O(device
// state) regardless of trace length.
func (e *engine) run(ctx context.Context, src trace.Source) (*Result, error) {
	var stream requestStream = src
	var ms *mergeStream
	if e.p.IOMergingEnabled {
		ms = newMergeStream(src)
		stream = ms
	}
	queues := newHostQueues(e.p)

	var (
		count, latSum  int64
		totalBytes     uint64
		firstArrival   int64
		lastCompletion int64
	)

	for {
		if count&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := e.ftl.fatal; err != nil {
			return nil, fmt.Errorf("%w (after %d measured requests)", err, count)
		}
		req, ok := stream.Next()
		if !ok {
			break
		}
		arrival := req.Arrival.Nanoseconds()
		if count == 0 {
			firstArrival = arrival
		}
		// Queue-depth backpressure: the request is dispatched to the
		// device once a slot in one of the submission queues frees.
		// Latency is measured from dispatch (device-level latency, what
		// an SSD vendor reports and what the paper's bounded speedup
		// ratios imply); host-side queueing shows up in
		// throughput/makespan instead.
		dispatch, slot := queues.admit(arrival)
		start := dispatch + e.hostCmdNS + e.fwNS

		// TRIMs carry no payload: nothing crosses the host link and the
		// request contributes no throughput bytes.
		var hostXfer int64
		if req.Op != trace.Trim {
			hostXfer = int64(float64(req.Bytes()) / e.hostBps * 1e9)
			totalBytes += req.Bytes()
		}

		done, firstLP, nPages := e.servePages(req, start)
		if req.Op == trace.Trim {
			e.UserTrims++
			if z := e.ftl.zns; z != nil {
				z.noteTrim(firstLP, nPages)
			}
		}
		// The host link is a shared resource: the request's payload
		// serializes over PCIe/SATA after the flash work completes.
		done = acquire(&e.hostFree, done, hostXfer) + hostXfer
		queues.complete(slot, done)
		lat := done - dispatch
		latSum += lat
		count++
		e.latHist.Record(lat)
		lastCompletion = max(lastCompletion, done)
	}
	if err := src.Err(); err != nil {
		return nil, fmt.Errorf("ssd: measured sweep: %w", err)
	}
	if err := e.ftl.fatal; err != nil {
		return nil, fmt.Errorf("%w (after %d measured requests)", err, count)
	}
	if count == 0 {
		return nil, fmt.Errorf("ssd: empty trace")
	}
	if ms != nil {
		e.MergedRequests = ms.merged
	}

	return e.buildResult(count, latSum, totalBytes, firstArrival, lastCompletion), nil
}

// servePages splits req into the logical pages it spans and applies it
// to each, all started at t. It returns the latest page completion (t
// when nothing finishes later) and the span. Both the warm-up and the
// measured pass replay requests through it.
func (e *engine) servePages(req trace.Request, t int64) (done, firstLP, nPages int64) {
	firstLP, nPages = e.ftl.pageSpan(req.LBA, req.Sectors)
	done = t
	for k, lp := int64(0), firstLP; k < nPages; k++ {
		var c int64
		switch req.Op {
		case trace.Read:
			c = e.readPage(lp, t)
		case trace.Trim:
			c = e.trimPage(lp, t)
		default:
			c = e.writePage(lp, t, req.Stream)
		}
		done = max(done, c)
		// lp is (firstLP + k) % logicalPages, wrapped by comparison.
		if lp++; lp == e.ftl.logicalPages {
			lp = 0
		}
	}
	return done, firstLP, nPages
}

// readPage returns the completion time of a logical-page read started at
// t (ns).
func (e *engine) readPage(lp, t int64) int64 {
	if e.warming {
		e.mappingAccess(lp, t, false)
		return t
	}
	// Data-cache hit?
	if e.cache.read(lp) {
		e.CacheHits++
		e.dramAccesses++
		return t + e.dramNS
	}
	e.CacheMisses++

	// Mapping lookup through the CMT.
	t = e.mappingAccess(lp, t, false)

	pl := e.ftl.lookup(lp)
	done := e.flashRead(pl, t)
	e.UserReads++
	if e.p.ReadCacheEnabled {
		if victim, dirtyEvict, _ := e.cache.insert(lp, false); dirtyEvict {
			e.flushDirty(victim, done)
		}
	}
	return done
}

// writePage returns the completion time of a logical-page write started
// at t (ns). stream is the host's multi-stream tag (ignored by other
// interface models).
func (e *engine) writePage(lp, t int64, stream uint32) int64 {
	e.ftl.noteStream(lp, stream)
	if e.warming {
		e.mappingAccess(lp, t, true)
		if z := e.ftl.zns; z != nil {
			z.noteWrite(lp)
		}
		e.ftl.placePage(lp, e.ftl.laneFor(lp))
		return t
	}
	t = e.mappingAccess(lp, t, true)
	if z := e.ftl.zns; z != nil {
		// Zone-append serialization: writes to one zone are ordered
		// through its append point (one DRAM pass each), and a write below
		// the zone write pointer pays a read-modify-reclaim penalty — the
		// cost a ZNS host incurs for violating the sequential-write rule.
		t = acquire(&e.zoneFree[z.zoneOf(lp)], t, e.dramNS)
		if z.noteWrite(lp) {
			t += e.progNS
		}
	}
	e.dramAccesses++
	victim, dirtyEvict, _ := e.cache.insert(lp, true)
	done := t + e.dramNS
	if dirtyEvict {
		// The evicted page must be programmed to flash; the new write
		// waits for the eviction's bus slot (cache backpressure).
		busStart := e.flushDirty(victim, t)
		if busStart+e.dramNS > done {
			done = busStart + e.dramNS
		}
	}
	// Proactive write-back: above the WriteBufferFlushPct threshold the
	// controller flushes dirty lines in the background (charged to the
	// flash timelines, not to this request), keeping eviction stalls off
	// the critical path.
	if e.p.WriteBufferFlushPct > 0 {
		for e.cache.dirtyFraction() > e.p.WriteBufferFlushPct/100 {
			victim, ok := e.cache.flushOldestDirty()
			if !ok {
				break
			}
			e.flushDirty(victim, t)
			e.ProactiveFlushes++
		}
	}
	return done
}

// trimPage applies a TRIM to one logical page: the mapping update is a
// CMT write (a genuinely dirty mapping entry), any cached copy is
// dropped without write-back, and the physical slot is staled so GC
// gets the reclaim credit. No flash data moves — the only time charged
// is the mapping access itself.
func (e *engine) trimPage(lp, t int64) int64 {
	if e.warming {
		e.mappingAccess(lp, t, true)
		e.ftl.trimPage(lp)
		return t
	}
	t = e.mappingAccess(lp, t, true)
	e.cache.invalidate(lp)
	e.ftl.trimPage(lp)
	return t
}

// flushDirty programs one dirty cache page to flash, charging GC if the
// allocation triggers it. It returns the time the page left DRAM (the
// channel-transfer start), which is when its cache slot is reusable.
func (e *engine) flushDirty(lp, t int64) (busStart int64) {
	pl, gcMoves, gcErases := e.ftl.placePage(lp, e.ftl.laneFor(lp))
	e.UserPrograms++
	busStart = e.flashProgram(pl, t)
	e.chargeGC(pl, gcMoves, gcErases, t)
	return busStart
}

// mappingAccess models the CMT: a miss reads the mapping page from
// flash; a dirty eviction programs one back. The untimed warm-up pass
// only moves the CMT: the flash work would advance timelines the
// warm-up boundary zeroes. Once warm-up left the CMT resident, every
// access is a hit and is only counted.
func (e *engine) mappingAccess(lp, t int64, write bool) int64 {
	if e.cmtResident {
		e.CMTHits++
		return t
	}
	_, dirtyEvict, hit := e.cmt.insert(lp/e.cmtGran, write)
	if hit {
		e.CMTHits++
		return t
	}
	e.CMTMisses++
	e.MappingReads++
	if e.warming {
		return t
	}
	// The mapping page lives on a deterministic plane.
	pl := e.ftl.lookup(lp)
	t = e.flashRead(pl, t)
	if dirtyEvict {
		e.MappingWrites++
		e.flashProgram(pl, t) // asynchronous write-back occupies resources
	}
	return t
}

// The two timeline primitives: every store to a resource timeline
// outside set-up and the warm-up reset is one of these
// (TestTimelineStoresOnlyInPrimitives).

// acquire occupies the resource whose timeline is *free for dur ns,
// starting no earlier than t, and returns the start; start-t is the
// time the work waited for the resource.
func acquire(free *int64, t, dur int64) (start int64) {
	start = max(t, *free)
	*free = start + dur
	return start
}

// bypass is acquire for work that may skip the resource's backlog: it
// waits for queued work at most bound ns, and the resource is then free
// at start+dur. Queued work the caller skipped drops off the timeline.
func bypass(free *int64, t, bound, dur int64) (start int64) {
	start = t
	if wait := *free - t; wait > 0 {
		start += min(wait, bound)
	}
	*free = start + dur
	return start
}

// flashRead charges one page read on plane pl starting no earlier than t
// and returns its completion time (after the channel transfer and ECC).
// The read bypasses work queued on its plane for at most readBound, and
// the plane is free again when the read's cell work ends.
func (e *engine) flashRead(pl planeID, t int64) int64 {
	cells := e.readNS
	var softDecode int64
	if fa := e.ftl.faults; fa != nil {
		// Stepped read-retry: each retry re-senses the page at a shifted
		// read voltage, re-occupying the plane; an exhausted ladder falls
		// back to an ECC soft-decode pass charged after the transfer.
		if steps := fa.readRetrySteps(e.p.ReadRetryLimit); steps > 0 {
			cells += int64(steps) * e.readNS
			e.ReadRetries += int64(steps)
			if steps >= e.p.ReadRetryLimit {
				e.ECCSoftDecodes++
				softDecode = eccSoftDecodeMult * e.eccNS
			}
		}
	}
	cellDone := bypass(&e.planeFree[pl], t, e.readBound, cells) + cells
	return e.channelXfer(pl, cellDone, e.xferNS) + e.xferNS + e.eccNS + softDecode
}

// flashProgram charges one page program on plane pl (bus transfer first,
// then the cell program). It returns the bus-transfer start time.
func (e *engine) flashProgram(pl planeID, t int64) (busStart int64) {
	busStart = e.channelXfer(pl, t, e.xferNS)
	acquire(&e.planeFree[pl], busStart+e.xferNS, e.progNS)
	return busStart
}

// channelXfer occupies pl's channel bus for dur ns, starting no earlier
// than t, and returns the transfer's start. Reads, programs and GC
// moves all cross the bus here; a start after t is a channel stall.
func (e *engine) channelXfer(pl planeID, t, dur int64) int64 {
	start := acquire(&e.channelFree[e.ftl.alloc.channelOf(pl)], t, dur)
	if start > t {
		e.stallHist.Record(start - t)
	}
	e.channelBusyNS += dur
	return start
}

// chargeGC adds the time cost of GC activity triggered at t to the
// plane (and channel, unless copyback keeps moves on-chip). It runs
// right after the triggering page program, which leaves both timelines
// past t, so the GC work queues behind that program and all of it is
// a pause that later requests on the plane observe (gcHist).
func (e *engine) chargeGC(pl planeID, moves, erases int32, t int64) {
	if moves == 0 && erases == 0 {
		return
	}
	per := e.readNS + e.progNS
	if !e.p.CopybackEnabled && moves > 0 {
		per += 2 * e.xferNS
		e.channelXfer(pl, t, int64(moves)*2*e.xferNS)
	}
	busy := int64(moves)*per + int64(erases)*e.eraseNS
	e.gcHist.Record(busy)
	acquire(&e.planeFree[pl], t, busy)
}

func (e *engine) buildResult(count, latSum int64, totalBytes uint64, firstArrival, lastCompletion int64) *Result {
	r := &Result{Requests: int(count), Counters: e.Counters}
	r.AvgLatency = time.Duration(latSum / count)
	r.LatencyHistogram = e.latHist.Snapshot()
	r.P50Latency = time.Duration(r.LatencyHistogram.P50)
	r.P95Latency = time.Duration(r.LatencyHistogram.P95)
	r.P99Latency = time.Duration(r.LatencyHistogram.P99)
	r.P999Latency = time.Duration(r.LatencyHistogram.P999)

	// A single-request trace (or one whose arrivals all coincide before a
	// shared completion) can yield lastCompletion == firstArrival, and a
	// dispatch gated far past the final completion can even drive the
	// difference negative. Rates divided by such a makespan were Inf/NaN;
	// fall back to the total device-busy time (the latency sum) so IOPS,
	// throughput and average power stay finite and meaningful.
	makespan := lastCompletion - firstArrival
	if makespan <= 0 {
		makespan = max(latSum, 1)
	}
	r.Makespan = time.Duration(makespan)
	r.ThroughputBps = float64(totalBytes) / (float64(makespan) / 1e9)
	r.IOPS = float64(count) / (float64(makespan) / 1e9)

	if fa := e.ftl.faults; fa != nil {
		r.RetiredBlocks = fa.retiredBlocks
		r.FactoryBadBlocks = fa.factoryBadBlocks
	}
	r.ChannelUtilization = float64(e.channelBusyNS) / (float64(makespan) * float64(e.p.Channels))
	r.WriteAmplification = 1
	if r.UserPrograms > 0 {
		r.WriteAmplification = float64(r.UserPrograms+r.GCPrograms) / float64(r.UserPrograms)
	}

	r.Wear = e.wear(makespan)
	r.EnergyJoules = e.energy(r, makespan)
	r.AvgPowerWatts = r.EnergyJoules / (float64(makespan) / 1e9)
	return r
}
