package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/obs"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
)

// ErrTransient marks a measurement failure worth retrying: wrap (or
// return) it from a trace source or simulator shim when the underlying
// cause is expected to clear — a flaky file handle, a remote trace
// store hiccup. The validator retries transient failures up to
// MaxRetries with exponential backoff; every other error (validation
// errors, ErrOutOfSpace degradation, timeouts, panics) is deterministic
// and fails fast.
var ErrTransient = errors.New("core: transient measurement error")

// PanicError is a panic recovered inside a simulation worker, converted
// to an ordinary error so one poisoned configuration cannot take down a
// whole tuning run. The original panic value and stack are preserved
// for the post-mortem.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: simulation panicked: %v", e.Value)
}

// Registry metric names recorded by an instrumented validator. Every
// MeasureTrace call resolves as exactly one of: a cache hit, a coalesced
// wait on another goroutine's in-flight run, a fresh local simulation,
// or a result measured by a remote backend (a waiter that retries after
// its leader was cancelled resolves once per attempt).
const (
	MetricSimRuns       = "validator_sim_runs_total"
	MetricCacheHits     = "validator_cache_hits_total"
	MetricCoalesced     = "validator_coalesced_waits_total"
	MetricRemoteResults = "validator_remote_results_total"
	// MetricQueueWait is the time a fresh simulation waited for a worker
	// slot; MetricSimTime is its in-simulator time. Comparing the two
	// histograms separates queueing pressure from simulation cost.
	MetricQueueWait = "validator_queue_wait_ns"
	MetricSimTime   = "validator_sim_time_ns"
	MetricDedupWait = "validator_dedup_wait_ns"
)

// Default hyperparameters from the paper's sensitivity studies (§4.6).
const (
	// DefaultAlpha balances latency vs throughput in Formula 1.
	DefaultAlpha = 0.5
	// DefaultBeta balances target vs non-target workloads in Formula 2.
	DefaultBeta = 0.1
)

// SimKey identifies one (configuration, trace) measurement: the
// validator's cache key and the dist coordinator's job key. A struct
// key cannot collide by construction; the former string key
// cfg.Key()+"|"+name was ambiguous for names containing the separator.
type SimKey struct {
	Cfg  string // ssdconf.Config.Key()
	Name string // trace name ("<cluster>#<i>")
}

func cacheKey(cfgKey, name string) SimKey { return SimKey{Cfg: cfgKey, Name: name} }

// inflightSim tracks an in-progress simulation so that concurrent
// lookups of the same key wait for the one leader instead of running a
// duplicate simulation (singleflight).
type inflightSim struct {
	done chan struct{}
	perf autodb.Perf
	err  error
	// cancelled marks a leader that failed because its own context
	// ended; its waiters retry rather than inherit that error.
	cancelled bool
}

// Validator measures configurations on workloads with the SSD simulator,
// memoizing results: the same (configuration, workload) pair is never
// simulated twice within a tuning session — not even when requested
// concurrently (in-flight simulations are deduplicated, singleflight).
//
// Every batch — a (candidate × cluster × trace) frontier, a pruning
// sweep, a cluster — starts all its jobs without waiting for any and
// returns their results in job order; the executing backend alone bounds how many
// simulations run (Parallel slots locally, the workers of a fleet).
// Because each ssd.Simulator.Run is fully independent and
// deterministic, parallel and serial execution fill the cache with
// bit-identical values.
type Validator struct {
	Space *ssdconf.Space
	// Workloads maps a workload-cluster name to factories for its
	// representative traces (the geometric mean is taken within a
	// cluster, per §3.4). The validator calls a trace's factory once,
	// on the first simulation of its name, and holds the stream as one
	// read-only request slice (32 B per request; 2.7 MB for the
	// default tune's 7 traces of 12,000 records). Every simulation
	// replays a private cursor over that slice, so workers never share
	// cursor state or hold duplicate slices. A factory over an
	// in-memory trace (Trace.Factory) is shared, not copied.
	Workloads map[string][]trace.SourceFactory
	// Parallel is the local backend's slot count: how many simulations
	// (trace builds included) may run at once across all measurement
	// calls; 0 (or negative) selects runtime.GOMAXPROCS(0). It is the
	// only local concurrency bound; a Backend ignores it. Set it before
	// the first measurement.
	Parallel int
	// Obs, when non-nil, receives detailed metrics (cache hits, dedup
	// waits, queue wait vs in-sim time) and is propagated to every
	// simulator it runs. It never influences measurement results. Set
	// it before the first measurement.
	Obs *obs.Registry
	// SimTimeout, when positive, bounds each individual simulation: a
	// run that exceeds it fails with context.DeadlineExceeded (wrapped).
	// Timeouts are deterministic for a given machine state and are NOT
	// retried — a configuration that simulates slowly once will again.
	SimTimeout time.Duration
	// MaxRetries bounds re-attempts of a simulation that failed with an
	// ErrTransient-wrapped error (50ms exponential backoff between
	// attempts). 0 means no retries.
	MaxRetries int
	// Backend, when non-nil, executes every cold-key measurement —
	// e.g. a dist.Coordinator sharding simulations across a worker
	// fleet. nil selects the in-process backend bounded by Parallel.
	// Because backends must be deterministic, results are bit-identical
	// either way. Set it before the first measurement.
	Backend Backend
	// Persist, when non-nil, is consulted before any cold-key
	// measurement and written after every successful one, carrying the
	// memo cache across process restarts. A persist hit counts as a
	// CacheHit, preserving the accounting law. Set it before the first
	// measurement.
	Persist *PersistentCache

	mu       sync.Mutex
	cache    map[SimKey]autodb.Perf
	inflight map[SimKey]*inflightSim
	traces   traceMemo     // each trace simulated so far, held once
	sem      chan struct{} // validator-wide simulation slots (lazy)
	local    *localBackend // default backend (lazy)
	sigCache string        // memoized Space.Signature() (lazy)

	simRuns   atomic.Int64
	simBusy   atomic.Int64 // aggregate per-worker in-simulator ns
	cacheHits atomic.Int64
	coalesced atomic.Int64
	remote    atomic.Int64 // results measured by a remote Backend
	// firstStartNS/lastEndNS bracket the real wall-clock span covered by
	// simulations (unix ns): lastEnd-firstStart is elapsed time, not the
	// per-worker sum simBusy accumulates.
	firstStartNS atomic.Int64
	lastEndNS    atomic.Int64
}

// NewValidator builds a validator over one representative trace per
// cluster.
func NewValidator(space *ssdconf.Space, workloads map[string]*trace.Trace) *Validator {
	m := make(map[string][]trace.SourceFactory, len(workloads))
	for k, tr := range workloads {
		m[k] = []trace.SourceFactory{tr.Factory()}
	}
	return NewValidatorSources(space, m)
}

// NewValidatorSources builds a validator over streaming source
// factories. Each distinct trace is derived once, on its first
// simulation, and held for the validator's lifetime as one request
// slice that every later simulation replays (see Workloads); the
// simulator and workload.NewSource alone still stream in O(device
// state) memory.
func NewValidatorSources(space *ssdconf.Space, groups map[string][]trace.SourceFactory) *Validator {
	return &Validator{
		Space:     space,
		Workloads: groups,
		cache:     make(map[SimKey]autodb.Perf),
		inflight:  make(map[SimKey]*inflightSim),
	}
}

// SimRuns reports how many simulator invocations were not served from
// cache (the paper's dominant overhead, Table 6).
func (v *Validator) SimRuns() int { return int(v.simRuns.Load()) }

// ValidatorStats is a point-in-time snapshot of the validator's
// always-on counters (kept regardless of whether Obs is set).
type ValidatorStats struct {
	// SimRuns counts fresh simulations (distinct cold keys).
	SimRuns int64
	// CacheHits counts MeasureTrace calls served from the memo or the
	// persistent cache. No caller reads a batch back, so every hit is a
	// real repeat of a key measured before.
	CacheHits int64
	// CoalescedWaits counts calls that waited on another goroutine's
	// in-flight simulation of the same key (singleflight dedup). A
	// waiter whose leader was cancelled retries, and counts again.
	CoalescedWaits int64
	// RemoteResults counts cold keys measured by a remote Backend
	// instead of the local pool. The accounting law extends to
	// SimRuns + CacheHits + CoalescedWaits + RemoteResults == calls.
	RemoteResults int64
	// Backend is the executing backend's own decomposition of where
	// jobs spent their time (queue wait vs execution), so remote
	// queueing delay is reported separately from local busy time.
	Backend BackendStats
	// SimBusy is the aggregate in-simulator time summed over workers;
	// under parallel validation it exceeds WallSpan by up to the worker
	// count.
	SimBusy time.Duration
	// WallSpan is the real elapsed span from the first simulation's start
	// to the last simulation's end (0 until a simulation ran). It still
	// includes any non-simulation time between batches, so it upper-bounds
	// rather than equals total simulation wall time.
	WallSpan time.Duration
}

// Utilization returns SimBusy / (workers × WallSpan): the mean fraction
// of the worker pool kept busy over the simulated span.
func (s ValidatorStats) Utilization(workers int) float64 {
	if workers <= 0 || s.WallSpan <= 0 {
		return 0
	}
	return float64(s.SimBusy) / (float64(workers) * float64(s.WallSpan))
}

// Stats snapshots the validator counters.
func (v *Validator) Stats() ValidatorStats {
	st := ValidatorStats{
		SimRuns:        v.simRuns.Load(),
		CacheHits:      v.cacheHits.Load(),
		CoalescedWaits: v.coalesced.Load(),
		RemoteResults:  v.remote.Load(),
		SimBusy:        time.Duration(v.simBusy.Load()),
	}
	be, _ := v.backend()
	st.Backend = be.Stats()
	if first := v.firstStartNS.Load(); first != 0 {
		if last := v.lastEndNS.Load(); last > first {
			st.WallSpan = time.Duration(last - first)
		}
	}
	return st
}

// markSimSpan folds one simulation's [start, end] into the wall-span
// bracket.
func (v *Validator) markSimSpan(start, end time.Time) {
	s, e := start.UnixNano(), end.UnixNano()
	for {
		cur := v.firstStartNS.Load()
		if cur != 0 && cur <= s {
			break
		}
		if v.firstStartNS.CompareAndSwap(cur, s) {
			break
		}
	}
	for {
		cur := v.lastEndNS.Load()
		if cur >= e {
			break
		}
		if v.lastEndNS.CompareAndSwap(cur, e) {
			break
		}
	}
}

// workers resolves the concurrency bound.
func (v *Validator) workers() int {
	if v.Parallel > 0 {
		return v.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// slots returns the validator-wide simulation semaphore, sized on first
// use from the Parallel bound.
func (v *Validator) slots() chan struct{} {
	v.mu.Lock()
	if v.sem == nil {
		v.sem = make(chan struct{}, v.workers())
	}
	s := v.sem
	v.mu.Unlock()
	return s
}

// backend resolves the executing backend, materializing the in-process
// one on first use when none is configured. remote reports whether the
// backend came from the Backend field.
func (v *Validator) backend() (be Backend, remote bool) {
	if b := v.Backend; b != nil {
		return b, true
	}
	v.mu.Lock()
	if v.local == nil {
		v.local = &localBackend{v: v}
	}
	b := v.local
	v.mu.Unlock()
	return b, false
}

// MeasureTrace runs one configuration against one trace, replaying the
// validator's copy of the trace named name (built from f on the name's
// first simulation). Concurrent calls with the same (configuration,
// trace) share a single simulation; a waiter whose leader was stopped
// by its own context retries instead of inheriting that error. Failed
// or cancelled measurements are never cached: a later call with the
// same key re-simulates.
func (v *Validator) MeasureTrace(ctx context.Context, cfg ssdconf.Config, name string, f trace.SourceFactory) (autodb.Perf, error) {
	key := cacheKey(cfg.Key(), name)
	v.mu.Lock()
	for {
		if p, ok := v.cache[key]; ok {
			v.mu.Unlock()
			v.cacheHits.Add(1)
			v.Obs.Counter(MetricCacheHits).Inc()
			return p, nil
		}
		fl, ok := v.inflight[key]
		if !ok {
			break
		}
		// Another goroutine is already simulating this key: wait for it
		// rather than duplicating the run. A cancelled waiter abandons
		// the wait; the leader's simulation still completes and fills
		// the cache.
		v.mu.Unlock()
		v.coalesced.Add(1)
		v.Obs.Counter(MetricCoalesced).Inc()
		t0 := time.Now()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return autodb.Perf{}, ctx.Err()
		}
		if r := v.Obs; r != nil {
			r.Histogram(MetricDedupWait).Record(time.Since(t0).Nanoseconds())
		}
		// A leader stopped by its own context measured nothing: a waiter
		// whose context is live tries again, and leads or hits the cache.
		if !fl.cancelled || ctx.Err() != nil {
			return fl.perf, fl.err
		}
		v.mu.Lock()
	}
	fl := &inflightSim{done: make(chan struct{})}
	v.inflight[key] = fl
	v.mu.Unlock()

	// The durable cache sits between the memo cache and the backend: a
	// restart-surviving hit skips the simulation entirely and fills the
	// memo cache, counting as a CacheHit so the accounting law holds.
	if p := v.Persist; p != nil {
		if perf, ok := p.Get(v.persistSig(), key.Cfg, key.Name); ok {
			fl.perf = perf
			v.cacheHits.Add(1)
			v.Obs.Counter(MetricCacheHits).Inc()
			v.mu.Lock()
			v.cache[key] = perf
			delete(v.inflight, key)
			v.mu.Unlock()
			close(fl.done)
			return perf, nil
		}
	}

	be, remote := v.backend()
	fl.perf, fl.err = be.Measure(ctx, Job{Cfg: cfg, Name: name, Src: f})
	fl.cancelled = ctx.Err() != nil && errors.Is(fl.err, ctx.Err())
	if remote && fl.err == nil {
		v.remote.Add(1)
		v.Obs.Counter(MetricRemoteResults).Inc()
	}

	v.mu.Lock()
	if fl.err == nil {
		v.cache[key] = fl.perf
	}
	delete(v.inflight, key) // errors are not cached; a retry re-simulates
	v.mu.Unlock()
	close(fl.done)
	if fl.err == nil && v.Persist != nil {
		v.Persist.Put(v.persistSig(), key.Cfg, key.Name, fl.perf)
	}
	return fl.perf, fl.err
}

// persistSig lazily computes and caches the space signature that scopes
// every persistent-cache key.
func (v *Validator) persistSig() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.sigCache == "" {
		v.sigCache = v.Space.Signature()
	}
	return v.sigCache
}

// simulate runs one simulation inside a worker slot, retrying
// ErrTransient failures with exponential backoff (50ms, doubling) up to
// MaxRetries. Deterministic failures — bad parameters, fault-driven
// ErrOutOfSpace, per-simulation timeouts, panics — return on the first
// attempt. The returned duration is the successful attempt's
// in-simulator time (0 on failure), feeding the backend's SimBusy.
func (v *Validator) simulate(ctx context.Context, job Job) (autodb.Perf, time.Duration, error) {
	cfg := job.Cfg
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		perf, d, err := v.simulateOnce(ctx, job)
		if err == nil || attempt >= v.MaxRetries || !errors.Is(err, ErrTransient) {
			if err != nil && attempt >= v.MaxRetries && errors.Is(err, ErrTransient) {
				obs.RecordEvent("warn-sim-failed", "cfg", cfg.Key(),
					"attempts", strconv.Itoa(attempt+1), "err", err.Error())
			}
			return perf, d, err
		}
		obs.RecordEvent("sim-retry", "cfg", cfg.Key(),
			"attempt", strconv.Itoa(attempt+1), "err", err.Error())
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return autodb.Perf{}, 0, ctx.Err()
		}
		backoff *= 2
	}
}

// simulateOnce is the uncached single-simulation path. The job's trace
// is built here, inside the worker slot, on the first simulation of its
// name (see traceMemo); every simulation replays a private cursor over
// it. A panic anywhere below — the factory, the source, the FTL, the
// codec — surfaces as a *PanicError instead of crashing the batch,
// and SimTimeout (when set) bounds the attempt, trace build
// included.
func (v *Validator) simulateOnce(ctx context.Context, job Job) (perf autodb.Perf, simDur time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			perf, simDur = autodb.Perf{}, 0
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	dev := v.Space.ToDevice(job.Cfg)
	sim, err := ssd.NewSimulator(dev)
	if err != nil {
		return autodb.Perf{}, 0, fmt.Errorf("core: validator: %w", err)
	}
	sim.Obs = v.Obs
	if v.SimTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, v.SimTimeout)
		defer cancel()
	}
	src, err := v.traces.source(ctx, job.Name, job.Src)
	if err != nil {
		return autodb.Perf{}, 0, err
	}
	t0 := time.Now()
	res, err := sim.RunSourceContext(ctx, src)
	if err != nil {
		return autodb.Perf{}, 0, fmt.Errorf("core: validator run: %w", err)
	}
	t1 := time.Now()
	v.simRuns.Add(1)
	v.simBusy.Add(t1.Sub(t0).Nanoseconds())
	v.markSimSpan(t0, t1)
	v.Obs.Counter(MetricSimRuns).Inc()
	v.Obs.Histogram(MetricSimTime).Record(t1.Sub(t0).Nanoseconds())
	return autodb.Perf{
		LatencyNS:           res.AvgLatency.Nanoseconds(),
		P99LatencyNS:        res.P99Latency.Nanoseconds(),
		ThroughputBps:       res.ThroughputBps,
		EnergyJoules:        res.EnergyJoules,
		PowerWatts:          res.AvgPowerWatts,
		MaxEraseCount:       res.Wear.MaxEraseCount,
		WearImbalance:       res.Wear.Imbalance,
		ProjectedLifetimeNS: res.Wear.ProjectedLifetime.Nanoseconds(),
	}, t1.Sub(t0), nil
}

// CachedPerf is one memoized (configuration, trace) measurement in
// portable form, used by checkpoint files to carry the cache across a
// process restart.
type CachedPerf struct {
	CfgKey string      `json:"cfg"`
	Name   string      `json:"trace"`
	Perf   autodb.Perf `json:"perf"`
}

// SnapshotCache exports the measurement cache in deterministic (CfgKey,
// Name) order. Only completed, error-free measurements are ever in the
// cache, so a snapshot taken at any instant — even mid-batch — is
// consistent.
func (v *Validator) SnapshotCache() []CachedPerf {
	v.mu.Lock()
	out := make([]CachedPerf, 0, len(v.cache))
	for k, p := range v.cache {
		out = append(out, CachedPerf{CfgKey: k.Cfg, Name: k.Name, Perf: p})
	}
	v.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].CfgKey != out[j].CfgKey {
			return out[i].CfgKey < out[j].CfgKey
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// RestoreCache seeds the measurement cache from a snapshot, so a
// resumed tuning run re-validates nothing it already measured.
func (v *Validator) RestoreCache(entries []CachedPerf) {
	v.mu.Lock()
	for _, e := range entries {
		v.cache[cacheKey(e.CfgKey, e.Name)] = e.Perf
	}
	v.mu.Unlock()
}

// MeasureBatch measures every (configuration × cluster × trace)
// combination as one batch (see measureJobs) and reports only whether
// all of them succeeded; in-process callers take the results from
// measureGrid instead. Overlapping keys — within the batch or against
// other concurrent callers — trigger exactly one simulation each, so
// SimRuns grows by exactly the number of distinct cold keys.
func (v *Validator) MeasureBatch(ctx context.Context, cfgs []ssdconf.Config, clusters []string) error {
	_, err := v.measureGrid(ctx, cfgs, clusters)
	return err
}

// measureGrid measures every (configuration × cluster × trace)
// combination as one batch and returns, per configuration, each
// cluster's per-trace results (aligned with the cluster's trace list).
func (v *Validator) measureGrid(ctx context.Context, cfgs []ssdconf.Config, clusters []string) ([]map[string][]autodb.Perf, error) {
	var jobs []Job
	for _, cl := range clusters {
		factories, ok := v.Workloads[cl]
		if !ok || len(factories) == 0 {
			return nil, fmt.Errorf("core: unknown workload cluster %q", cl)
		}
		for _, cfg := range cfgs {
			for i, f := range factories {
				jobs = append(jobs, Job{Cfg: cfg, Name: traceName(cl, i), Src: f})
			}
		}
	}
	perfs, err := v.measureJobs(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]map[string][]autodb.Perf, len(cfgs))
	for c := range cfgs {
		out[c] = make(map[string][]autodb.Perf, len(clusters))
	}
	for _, cl := range clusters {
		n := len(v.Workloads[cl])
		for c := range cfgs {
			out[c][cl], perfs = perfs[:n:n], perfs[n:]
		}
	}
	return out, nil
}

// MeasureConfigs measures many configurations against one explicit
// trace as one batch — the §3.3 pruning sweeps — and returns the
// results in cfgs order.
func (v *Validator) MeasureConfigs(ctx context.Context, cfgs []ssdconf.Config, name string, f trace.SourceFactory) ([]autodb.Perf, error) {
	jobs := make([]Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = Job{Cfg: cfg, Name: name, Src: f}
	}
	return v.measureJobs(ctx, jobs)
}

// measureJobs is the validator's one batch path: it starts every job,
// in job order and without waiting for any to finish, and returns each
// job's result in job order. The executing backend alone bounds how
// many run: the local backend's slot semaphore, or a fleet's workers.
// The first error cancels the rest of the batch, so a job that has not
// started its simulation returns without one, and the batch returns
// that first error.
func (v *Validator) measureJobs(ctx context.Context, jobs []Job) ([]autodb.Perf, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]autodb.Perf, len(jobs))
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	for i, j := range jobs {
		wg.Add(1)
		running := make(chan struct{})
		go func() {
			defer wg.Done()
			close(running)
			p, err := v.MeasureTrace(ctx, j.Cfg, j.Name, j.Src)
			if err != nil {
				// Siblings fail with context.Canceled only after cancel,
				// so the error recorded here is the batch's first.
				once.Do(func() { firstErr = err; cancel() })
				return
			}
			out[i] = p
		}()
		// The next job starts once this one runs, so jobs queue for the
		// backend in job order. Left to the Go scheduler, a batch's first
		// jobs tended to queue last, and with more jobs than slots the
		// order decides which long simulation finishes the batch.
		<-running
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// traceName is the canonical cache name of a cluster's i-th trace.
func traceName(cluster string, i int) string { return fmt.Sprintf("%s#%d", cluster, i) }

// MeasureCluster runs cfg on every trace of a cluster and returns the
// per-trace results keyed "<cluster>#<i>".
func (v *Validator) MeasureCluster(ctx context.Context, cfg ssdconf.Config, cluster string) ([]autodb.Perf, error) {
	m, err := v.measureGrid(ctx, []ssdconf.Config{cfg}, []string{cluster})
	if err != nil {
		return nil, err
	}
	return m[0][cluster], nil
}

// Clusters returns the cluster names in sorted-stable order.
func (v *Validator) Clusters() []string {
	out := make([]string, 0, len(v.Workloads))
	for k := range v.Workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NonTargetClusters returns every cluster except the target, sorted.
func (v *Validator) NonTargetClusters(target string) []string {
	out := make([]string, 0, len(v.Workloads))
	for k := range v.Workloads {
		if k != target {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Grader evaluates Formulas 1 and 2.
type Grader struct {
	Alpha float64 // Formula 1 latency/throughput balance
	Beta  float64 // Formula 2 target/non-target penalty balance
	// Ref holds the reference (commodity baseline) measurements per
	// cluster, aligned with the validator's trace lists.
	Ref map[string][]autodb.Perf
}

// NewGrader measures the reference configuration on every cluster, as
// one parallel batch.
func NewGrader(ctx context.Context, v *Validator, refCfg ssdconf.Config, alpha, beta float64) (*Grader, error) {
	g := &Grader{Alpha: alpha, Beta: beta}
	clusters := v.Clusters()
	sp := obs.StartSpan("reference").ArgInt("clusters", int64(len(clusters)))
	defer sp.End()
	m, err := v.measureGrid(ctx, []ssdconf.Config{refCfg}, clusters)
	if err != nil {
		return nil, err
	}
	g.Ref = m[0]
	return g, nil
}

// Performance implements Formula 1:
//
//	(1-α)·log(Lat_ref/Lat_target) + α·log(Tput_target/Tput_ref)
//
// Positive values mean the target configuration beats the reference.
func (g *Grader) Performance(target, ref autodb.Perf) float64 {
	lat := math.Log(float64(ref.LatencyNS) / float64(target.LatencyNS))
	tput := math.Log(target.ThroughputBps / ref.ThroughputBps)
	return (1-g.Alpha)*lat + g.Alpha*tput
}

// ClusterPerformance averages Formula 1 over a cluster's traces. The
// values are log-ratios, so this arithmetic mean is exactly the
// geometric mean of the underlying speedups — the paper's "geometric
// mean ... within each cluster".
func (g *Grader) ClusterPerformance(cluster string, perfs []autodb.Perf) float64 {
	refs := g.Ref[cluster]
	var sum float64
	for i, p := range perfs {
		sum += g.Performance(p, refs[i])
	}
	return sum / float64(len(perfs))
}

// Grade implements Formula 2 given the target cluster's performance and
// the per-cluster performance of the non-targets.
func (g *Grader) Grade(targetPerf float64, nonTarget map[string]float64, numClusters int) float64 {
	if numClusters <= 1 {
		return targetPerf
	}
	// Sum in key order: float addition is not associative, and map
	// iteration order would make equal inputs grade differently in the
	// last bits.
	names := make([]string, 0, len(nonTarget))
	for name := range nonTarget {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	for _, name := range names {
		sum += nonTarget[name]
	}
	return (1-g.Beta)*targetPerf + g.Beta*sum/float64(numClusters-1)
}

// TargetHalf returns the target-only share of the grade — the quantity
// the §3.4 validation-pruning shortcut compares against the worst
// retained grade before deciding whether the non-target runs are worth
// their cost.
func (g *Grader) TargetHalf(targetPerf float64) float64 {
	return (1 - g.Beta) * targetPerf
}

// Speedups converts a measurement pair into the latency/throughput
// speedup ratios the paper's tables report.
func Speedups(target, ref autodb.Perf) (latSpeedup, tputSpeedup float64) {
	return float64(ref.LatencyNS) / float64(target.LatencyNS),
		target.ThroughputBps / ref.ThroughputBps
}
