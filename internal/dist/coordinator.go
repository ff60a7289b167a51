package dist

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/core"
	"autoblox/internal/obs"
	"autoblox/internal/ssdconf"
)

// Fleet metric names, recorded when the coordinator has a registry.
const (
	MetricLeasesGranted    = "dist_leases_granted_total"
	MetricLeasesExpired    = "dist_leases_expired_total"
	MetricLeasesReassigned = "dist_leases_reassigned_total"
	MetricResultsDup       = "dist_results_duplicate_total"
	MetricHandshakeRejects = "dist_handshake_rejects_total"
	MetricStatsPushes      = "dist_stats_pushes_total"
	MetricWorkersConnected = "dist_workers_connected"
	MetricHedgedLeases     = "dist_hedged_leases_total"
)

// MetricWorkerBusy names a fleet worker's per-job busy-time histogram
// ("dist_worker_busy_ns{worker=\"name\"}").
func MetricWorkerBusy(worker string) string {
	return fmt.Sprintf(`dist_worker_busy_ns{worker=%q}`, worker)
}

// CoordinatorOptions tunes the lease machinery. The policy constants
// below fix everything else.
type CoordinatorOptions struct {
	// LeaseTTL is how long a worker may hold a lease before the job is
	// reassigned (default 30s).
	LeaseTTL time.Duration
	// PollInterval bounds how long an idle LeaseReq blocks before an
	// empty grant tells the worker to ask again (default 250ms). It is
	// also the granularity at which expired leases are detected.
	PollInterval time.Duration
	// Obs, when set, receives fleet counters and per-worker busy
	// histograms. Never influences results.
	Obs *obs.Registry
	// Clock, when set, replaces the wall clock for all lease
	// bookkeeping (TTL expiry, hedging age) — tests inject a fake to
	// pin expiry edge cases deterministically.
	Clock Clock

	// Hedge enables hedged re-leases: a job whose oldest active lease
	// has aged past the hedgeQuantile of recent grant→result latencies
	// (once hedgeMinSamples completions are seen, floored at
	// PollInterval) is granted to another worker too, up to hedgeMax
	// concurrent leases; the first valid result wins (results apply
	// idempotently, so the loser is just a duplicate).
	Hedge bool
}

// Coordinator policy constants.
const (
	batchMax        = 16   // cap on one grant: a worker with more free slots gets at most this many leases per grant
	hedgeQuantile   = 0.95 // completion-latency quantile past which a lease straggles
	hedgeMinSamples = 8    // completions seen before hedging may fire
	hedgeMax        = 2    // concurrent leases per job, primary included
)

// withDefaults fills the unset options.
func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 250 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = realClock{}
	}
	return o
}

// FleetCounters is a point-in-time snapshot of the coordinator's
// lease counters (kept regardless of Obs). Its JSON keys are the
// /statusz fleet document's.
type FleetCounters struct {
	Granted          int64 `json:"leases_granted"`
	Expired          int64 `json:"leases_expired"`
	Reassigned       int64 `json:"leases_reassigned"`
	Duplicates       int64 `json:"duplicate_results"`
	HandshakeRejects int64 `json:"handshake_rejects"`
	StatsPushes      int64 `json:"stats_pushes"`
	Hedged           int64 `json:"hedged_leases,omitempty"`
}

type jobState uint8

const (
	jobPending jobState = iota
	jobLeased
	jobDone
)

// leaseInfo is one active lease binding a job to a session. A job may
// hold several concurrently (hedging); the first applied result
// releases them all.
type leaseInfo struct {
	job    *distJob
	sess   *session
	expiry time.Time
}

// distJob is one measurement key moving through the lease state
// machine.
type distJob struct {
	key        core.SimKey
	cfg        ssdconf.Config
	submitted  time.Time
	state      jobState
	leases     map[uint64]*leaseInfo // active leases (state == jobLeased)
	firstGrant time.Time             // oldest active lease's grant time (hedging age)
	grants     int                   // total leases issued for this job
	expiries   int                   // times the job fully returned to pending via expiry
	waited     bool
	queueWait  time.Duration // submit → first grant

	done chan struct{}
	perf autodb.Perf
	err  error
}

// session is one connected worker's lease bookkeeping, plus the
// clock-offset estimate taken during its handshake.
type session struct {
	name   string
	leases map[uint64]*leaseInfo
	lane   int64 // trace lane for this worker's replayed spans
	// offsetNS estimates workerClock − coordClock; subtracting it from a
	// worker timestamp lands it on the coordinator's clock. rttNS is the
	// handshake round trip the estimate derived from (its error bound).
	offsetNS int64
	rttNS    int64
}

// workerTally accumulates one worker's fleet statistics. Tallies are
// keyed by worker name and survive reconnects; beyond maxIdleTallies
// disconnected ones, the least recently seen is forgotten.
type workerTally struct {
	jobs       int64
	busyNS     int64
	expired    int64
	reassigned int64
	sessions   int      // currently connected session count
	cur        *session // most recent connected session (nil when none)
	lastSeen   time.Time
}

// RemoteError is a worker-side measurement failure relayed through the
// coordinator.
type RemoteError struct {
	Worker string
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("dist: worker %s: %s", e.Worker, e.Msg)
}

// completionWindow is the bounded sample of recent completion
// latencies feeding the hedging quantile.
const completionWindow = 64

// maxIdleTallies bounds the per-worker rows kept for disconnected
// workers. A restarted worker handshakes under a new "<host>/<pid>"
// name, so without a bound a long-lived coordinator keeps one row per
// process it ever served. Connected workers' rows and the
// FleetCounters totals are never evicted.
const maxIdleTallies = 64

// Coordinator owns the distributed measurement queue and implements
// core.Backend: Measure enqueues a key and blocks until some worker
// returns its result. Deduplication generalizes the validator's
// singleflight across the fleet — one lease chain per distinct key, TTL
// expiry and worker death both return the job to the queue, and results
// apply idempotently (deterministic sims make any worker's result THE
// result for the key).
type Coordinator struct {
	env  *Env
	opts CoordinatorOptions

	counters core.BackendCounters
	// One counter per fleet event: the registry's series when Obs is
	// set, a private counter otherwise. Every event adds to exactly one.
	granted, expired, reassigned, duplicates, rejects, statsPushes, hedged *obs.Counter

	// traceID names this coordinator's tracing session; leases carry it
	// so worker-side trace events correlate back to this tune.
	traceID string

	mu          sync.Mutex
	cond        *sync.Cond
	closed      bool
	nextLease   uint64
	nextLane    int64
	pending     []*distJob
	leased      map[uint64]*leaseInfo
	byKey       map[core.SimKey]*distJob
	tallies     map[string]*workerTally
	completions [completionWindow]time.Duration
	compN       int
}

// NewCoordinator builds a coordinator over a fingerprinted env.
func NewCoordinator(env *Env, opts CoordinatorOptions) *Coordinator {
	c := &Coordinator{
		env:         env,
		opts:        opts.withDefaults(),
		granted:     obs.CounterOf(opts.Obs, MetricLeasesGranted),
		expired:     obs.CounterOf(opts.Obs, MetricLeasesExpired),
		reassigned:  obs.CounterOf(opts.Obs, MetricLeasesReassigned),
		duplicates:  obs.CounterOf(opts.Obs, MetricResultsDup),
		rejects:     obs.CounterOf(opts.Obs, MetricHandshakeRejects),
		statsPushes: obs.CounterOf(opts.Obs, MetricStatsPushes),
		hedged:      obs.CounterOf(opts.Obs, MetricHedgedLeases),
		leased:      make(map[uint64]*leaseInfo),
		byKey:       make(map[core.SimKey]*distJob),
		tallies:     make(map[string]*workerTally),
		traceID:     obs.TraceID(),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// now reads the injected clock (wall clock by default).
func (c *Coordinator) now() time.Time { return c.opts.Clock.Now() }

// Counters snapshots the fleet counters.
func (c *Coordinator) Counters() FleetCounters {
	return FleetCounters{
		Granted:          c.granted.Value(),
		Expired:          c.expired.Value(),
		Reassigned:       c.reassigned.Value(),
		Duplicates:       c.duplicates.Value(),
		HandshakeRejects: c.rejects.Value(),
		StatsPushes:      c.statsPushes.Value(),
		Hedged:           c.hedged.Value(),
	}
}

// Stats implements core.Backend: QueueWait is submit-to-first-lease,
// SimBusy the worker-reported per-job time, plus fleet lease churn.
// The per-worker decomposition is StatusSnapshot's Workers.
func (c *Coordinator) Stats() core.BackendStats {
	s := c.counters.Snapshot(core.BackendKindDist)
	s.LeasesExpired = c.expired.Value()
	s.LeasesReassigned = c.reassigned.Value()
	return s
}

// WorkerStatus is one worker's row in the fleet status view. Rows
// survive reconnects: Jobs and BusyNS are the worker-reported totals,
// LeasesExpired counts leases the worker let time out and
// LeasesReassigned expired jobs re-granted to it.
type WorkerStatus struct {
	Name             string `json:"name"`
	Connected        bool   `json:"connected"`
	Jobs             int64  `json:"jobs"`
	BusyNS           int64  `json:"busy_ns"`
	LeasesHeld       int    `json:"leases_held"`
	LeasesExpired    int64  `json:"leases_expired"`
	LeasesReassigned int64  `json:"leases_reassigned"`
	ClockOffsetNS    int64  `json:"clock_offset_ns"`
	RTTNS            int64  `json:"rtt_ns"`
	LastSeen         string `json:"last_seen,omitempty"`
}

// FleetStatus is the coordinator's /statusz document: queue depths,
// lease churn, and per-worker rows.
type FleetStatus struct {
	Closed  bool `json:"closed"`
	Pending int  `json:"pending"`
	Leased  int  `json:"leased"`
	FleetCounters
	Workers []WorkerStatus `json:"workers,omitempty"`
}

// StatusSnapshot captures the live fleet view served at /statusz.
func (c *Coordinator) StatusSnapshot() FleetStatus {
	st := FleetStatus{FleetCounters: c.Counters()}
	c.mu.Lock()
	defer c.mu.Unlock()
	st.Closed = c.closed
	st.Pending = len(c.pending)
	st.Leased = len(c.leased)
	held := map[string]int{}
	for _, li := range c.leased {
		held[li.sess.name]++
	}
	names := make([]string, 0, len(c.tallies))
	for name := range c.tallies {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := c.tallies[name]
		row := WorkerStatus{
			Name:             name,
			Connected:        t.sessions > 0,
			Jobs:             t.jobs,
			BusyNS:           t.busyNS,
			LeasesHeld:       held[name],
			LeasesExpired:    t.expired,
			LeasesReassigned: t.reassigned,
		}
		if t.cur != nil {
			row.ClockOffsetNS = t.cur.offsetNS
			row.RTTNS = t.cur.rttNS
		}
		if !t.lastSeen.IsZero() {
			row.LastSeen = t.lastSeen.UTC().Format(time.RFC3339Nano)
		}
		st.Workers = append(st.Workers, row)
	}
	return st
}

// tallyLocked returns (creating if needed) a worker's tally; c.mu held.
func (c *Coordinator) tallyLocked(name string) *workerTally {
	t, ok := c.tallies[name]
	if !ok {
		t = &workerTally{}
		c.tallies[name] = t
	}
	return t
}

// releaseLeaseLocked removes one lease from all three indexes (global,
// session, job); c.mu held.
func (c *Coordinator) releaseLeaseLocked(id uint64, li *leaseInfo) {
	delete(c.leased, id)
	delete(li.sess.leases, id)
	delete(li.job.leases, id)
}

// Measure implements core.Backend: enqueue the job (deduplicated by
// key) and wait for a worker's result.
func (c *Coordinator) Measure(ctx context.Context, job core.Job) (autodb.Perf, error) {
	j, err := c.submit(job)
	if err != nil {
		return autodb.Perf{}, err
	}
	select {
	case <-j.done:
		return j.perf, j.err
	case <-ctx.Done():
		return autodb.Perf{}, ctx.Err()
	}
}

// submit enqueues a job, returning the existing entry when the key is
// already pending or leased.
func (c *Coordinator) submit(job core.Job) (*distJob, error) {
	k := core.SimKey{Cfg: job.Cfg.Key(), Name: job.Name}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if j, ok := c.byKey[k]; ok {
		return j, nil
	}
	j := &distJob{
		key:       k,
		cfg:       job.Cfg.Clone(),
		submitted: c.now(),
		leases:    make(map[uint64]*leaseInfo),
		done:      make(chan struct{}),
	}
	c.byKey[k] = j
	c.pending = append(c.pending, j)
	c.cond.Broadcast()
	return j, nil
}

// Close shuts the queue down: every unfinished job fails with
// ErrClosed, idle lease polls return Closed grants, and connected
// workers exit on their next pull.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, j := range c.byKey {
		if j.state != jobDone {
			j.state = jobDone
			j.err = ErrClosed
			close(j.done)
		}
	}
	c.pending = nil
	c.leased = make(map[uint64]*leaseInfo)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// isClosed reports whether Close has run.
func (c *Coordinator) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// expireLocked returns every overdue lease to the pending queue.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, li := range c.leased {
		if !now.Before(li.expiry) {
			c.expireLeaseLocked(id, li, false)
		}
	}
}

// dropSession expires a disconnected worker's leases immediately.
func (c *Coordinator) dropSession(sess *session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, li := range sess.leases {
		c.expireLeaseLocked(id, li, true)
	}
	t := c.tallyLocked(sess.name)
	t.sessions--
	if t.cur == sess {
		t.cur = nil
	}
	t.lastSeen = c.now()
	c.evictIdleTallyLocked()
	c.opts.Obs.Gauge(MetricWorkersConnected).Add(-1)
	obs.RecordEvent("worker-disconnected", "worker", sess.name)
	c.cond.Broadcast()
}

// evictIdleTallyLocked forgets the least recently seen disconnected
// worker (ties broken by name) once more than maxIdleTallies are kept.
// Only a disconnect adds an idle tally, so one eviction per disconnect
// holds the bound; c.mu held.
func (c *Coordinator) evictIdleTallyLocked() {
	idle, victim := 0, ""
	var vt *workerTally
	for name, t := range c.tallies {
		if t.sessions > 0 {
			continue
		}
		idle++
		if vt == nil || t.lastSeen.Before(vt.lastSeen) || (t.lastSeen.Equal(vt.lastSeen) && name < victim) {
			victim, vt = name, t
		}
	}
	if idle > maxIdleTallies {
		delete(c.tallies, victim)
	}
}

// expireLeaseLocked releases one lease, charges the expiry to the
// worker that held it, and requeues the job once its last active lease
// is gone (a hedged job keeps running on its other lease). A TTL
// expiry records the job's prior expiry count, and a job fully
// expiring for the second time records a "warn-flaky-job" flight
// event — two workers (or the same worker twice) sat on the same
// deterministic job, which usually means a wedged or overloaded
// worker, not a bad job. A disconnect records its reason instead.
// c.mu held.
func (c *Coordinator) expireLeaseLocked(id uint64, li *leaseInfo, disconnect bool) {
	j, owner := li.job, li.sess.name
	c.releaseLeaseLocked(id, li)
	c.tallyLocked(owner).expired++
	c.expired.Inc()
	why, val := "expiries", fmt.Sprint(j.expiries)
	if disconnect {
		why, val = "reason", "disconnect"
	}
	obs.RecordEvent("lease-expired",
		"lease", fmt.Sprint(id), "worker", owner, "trace", j.key.Name, why, val)
	if j.state != jobLeased || len(j.leases) > 0 {
		return
	}
	j.state = jobPending
	j.expiries++
	c.pending = append(c.pending, j)
	if !disconnect && j.expiries == 2 {
		obs.RecordEvent("warn-flaky-job",
			"trace", j.key.Name, "cfg", j.key.Cfg, "worker", owner, "expiries", "2")
	}
}

// grantLocked issues one lease of j to sess; c.mu held.
func (c *Coordinator) grantLocked(j *distJob, sess *session, now time.Time, hedged bool) Lease {
	c.nextLease++
	li := &leaseInfo{job: j, sess: sess, expiry: now.Add(c.opts.LeaseTTL)}
	if len(j.leases) == 0 {
		j.firstGrant = now
	}
	if !j.waited {
		j.waited = true
		j.queueWait = now.Sub(j.submitted)
	}
	if j.grants > 0 && !hedged {
		c.reassigned.Inc()
		c.tallyLocked(sess.name).reassigned++
		obs.RecordEvent("lease-reassigned",
			"lease", fmt.Sprint(c.nextLease), "worker", sess.name, "trace", j.key.Name, "grants", fmt.Sprint(j.grants+1))
	}
	j.grants++
	j.state = jobLeased
	c.leased[c.nextLease] = li
	sess.leases[c.nextLease] = li
	j.leases[c.nextLease] = li
	return Lease{
		ID:      c.nextLease,
		CfgKey:  j.key.Cfg,
		Cfg:     []int(j.cfg),
		Name:    j.key.Name,
		TraceID: c.traceID,
	}
}

// hedgeThresholdLocked resolves the straggler age past which a leased
// job is eligible for a duplicate grant: the hedgeQuantile of the last
// completionWindow grant→result latencies, floored at PollInterval;
// 0 (fewer than hedgeMinSamples completions) disables hedging for now.
// c.mu held.
func (c *Coordinator) hedgeThresholdLocked() time.Duration {
	n := c.compN
	if n > completionWindow {
		n = completionWindow
	}
	if n < hedgeMinSamples {
		return 0
	}
	buf := make([]time.Duration, n)
	copy(buf, c.completions[:n])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	th := buf[int(hedgeQuantile*float64(n-1))]
	if th < c.opts.PollInterval {
		th = c.opts.PollInterval
	}
	return th
}

// hedgeLocked issues duplicate leases for straggler jobs to sess, up
// to the remaining grant capacity; c.mu held.
func (c *Coordinator) hedgeLocked(sess *session, now time.Time, room int) []Lease {
	if !c.opts.Hedge || room <= 0 {
		return nil
	}
	th := c.hedgeThresholdLocked()
	if th <= 0 {
		return nil
	}
	seen := make(map[*distJob]bool)
	var out []Lease
	for _, li := range c.leased {
		j := li.job
		if seen[j] || j.state != jobLeased || len(j.leases) >= hedgeMax {
			continue
		}
		seen[j] = true
		if now.Sub(j.firstGrant) < th {
			continue
		}
		// Don't hedge to a worker already holding this job.
		holds := false
		for _, other := range j.leases {
			if other.sess == sess {
				holds = true
				break
			}
		}
		if holds {
			continue
		}
		l := c.grantLocked(j, sess, now, true)
		c.hedged.Inc()
		obs.RecordEvent("lease-hedged",
			"lease", fmt.Sprint(l.ID), "worker", sess.name, "trace", j.key.Name,
			"age", now.Sub(j.firstGrant).String(), "threshold", th.String())
		out = append(out, l)
		if len(out) >= room {
			break
		}
	}
	return out
}

// lease grants up to max jobs. A session that holds no leases blocks up
// to PollInterval for work; one that still holds leases is answered at
// once, possibly with an empty grant, because ServeConn reads the
// session's frames in order and a parked poll would hold back the
// results of the jobs it is running. closed=true tells the worker to
// exit.
func (c *Coordinator) lease(sess *session, max int) (leases []Lease, closed bool) {
	if max <= 0 {
		max = 1
	}
	if max > batchMax {
		max = batchMax
	}
	// The poll deadline is transport liveness (how long a worker's
	// request may block), not lease semantics — it stays on the wall
	// clock so that a frozen fake Clock still gets empty grants back.
	deadline := time.Now().Add(c.opts.PollInterval)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		now := c.now()
		c.expireLocked(now)
		if c.closed {
			return nil, true
		}
		if len(c.pending) > 0 {
			n := max
			if n > len(c.pending) {
				n = len(c.pending)
			}
			leases = make([]Lease, 0, n)
			for _, j := range c.pending[:n] {
				leases = append(leases, c.grantLocked(j, sess, now, false))
			}
			c.pending = c.pending[n:]
			c.granted.Add(int64(len(leases)))
			return leases, false
		}
		if hl := c.hedgeLocked(sess, now, max); len(hl) > 0 {
			c.granted.Add(int64(len(hl)))
			return hl, false
		}
		wall := time.Now()
		if len(sess.leases) > 0 || !wall.Before(deadline) {
			return nil, false
		}
		// cond has no deadline wait; arm a broadcast at the poll boundary
		// so this wakes for new work, shutdown, or timeout alike. The
		// broadcast takes c.mu so it cannot fire before Wait has parked
		// this goroutine (a lost wakeup would park the poll for good).
		t := time.AfterFunc(deadline.Sub(wall), func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
		c.cond.Wait()
		t.Stop()
	}
}

// completeLocked finishes a job and wakes its waiters; c.mu held.
func (c *Coordinator) completeLocked(j *distJob, perf autodb.Perf, err error) {
	if j.state == jobDone {
		return
	}
	j.state = jobDone
	j.perf, j.err = perf, err
	// The validator memo and the persistent cache hold the result, so
	// the job table only tracks jobs in flight: forget the key, and a
	// late or duplicate result takes the unknown-key branch. After an
	// error this also lets a later submit retry.
	delete(c.byKey, j.key)
	close(j.done)
}

// applyResults folds a worker's results into the job table,
// idempotently: a result for an unknown or already-done key counts as a
// duplicate and changes nothing; a result from an expired (reassigned)
// lease is accepted — the sims are deterministic, so any worker's result
// for the key is the result. Everything is charged to the name the
// session's handshake accepted; the frame's own Worker field is not
// trusted, so one connection cannot report under other names. When the
// coordinator traces, each accepted
// result is also replayed as a span pair on the coordinator's own
// timeline: a "lease" span covering submit→done (queue wait included)
// and a "worker-sim" span at the worker's reported start, shifted onto
// the coordinator's clock by the session's handshake offset estimate.
func (c *Coordinator) applyResults(sess *session, msg *ResultMsg) {
	type replay struct {
		r         JobResult
		submitted time.Time
		done      time.Time
	}
	var replays []replay
	c.mu.Lock()
	t := c.tallyLocked(sess.name)
	t.jobs += int64(len(msg.Results))
	t.busyNS += msg.BusyNS
	t.lastSeen = c.now()
	for _, r := range msg.Results {
		j, ok := c.byKey[core.SimKey{Cfg: r.CfgKey, Name: r.Name}]
		if !ok || j.state == jobDone {
			c.duplicates.Inc()
			continue
		}
		now := c.now()
		replays = append(replays, replay{r: r, submitted: j.submitted, done: now})
		switch j.state {
		case jobLeased:
			if r.Err == "" {
				c.recordCompletionLocked(now.Sub(j.firstGrant))
			}
			for id, li := range j.leases {
				c.releaseLeaseLocked(id, li)
			}
		case jobPending:
			// Reassignment raced the late result: pull the job back out of
			// the queue before some worker re-runs it.
			for i, p := range c.pending {
				if p == j {
					c.pending = append(c.pending[:i], c.pending[i+1:]...)
					break
				}
			}
		}
		c.counters.Record(j.queueWait, time.Duration(r.SimNS))
		if r.Err != "" {
			c.completeLocked(j, autodb.Perf{}, &RemoteError{Worker: sess.name, Msg: r.Err})
			continue
		}
		c.completeLocked(j, r.Perf, nil)
	}
	c.mu.Unlock()
	if r := c.opts.Obs; r != nil {
		r.Histogram(MetricWorkerBusy(sess.name)).Record(msg.BusyNS)
	}
	for _, rp := range replays {
		leaseID := strconv.FormatUint(rp.r.LeaseID, 10)
		obs.Complete("lease", sess.lane, rp.submitted, rp.done.Sub(rp.submitted),
			"lease", leaseID, "worker", sess.name, "trace", rp.r.Name, "trace_id", c.traceID)
		if rp.r.StartUnixNano != 0 {
			start := time.Unix(0, rp.r.StartUnixNano-sess.offsetNS)
			obs.Complete("worker-sim", sess.lane, start, time.Duration(rp.r.SimNS),
				"lease", leaseID, "worker", sess.name, "trace", rp.r.Name, "trace_id", c.traceID)
		}
	}
}

// recordCompletionLocked folds one grant→result latency into the
// hedging sample window; c.mu held.
func (c *Coordinator) recordCompletionLocked(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.completions[c.compN%completionWindow] = d
	c.compN++
}

// absorbStats folds a worker's delta-encoded metrics push into the
// coordinator's registry, labelled with the session's handshake name.
func (c *Coordinator) absorbStats(sess *session, sp *StatsPush) {
	c.statsPushes.Inc()
	c.opts.Obs.Absorb(sp.Stats, "worker", sess.name)
}

// ServeConn speaks the worker protocol over one connection: handshake,
// then a lease/result loop until the peer disconnects, says goodbye,
// or the coordinator closes. It blocks; run it in a goroutine per
// connection. Leases held by a disconnecting worker are reassigned
// immediately.
func (c *Coordinator) ServeConn(conn net.Conn) error {
	defer conn.Close()
	r := bufio.NewReader(conn)
	m, err := Decode(r)
	if err != nil {
		return fmt.Errorf("dist: handshake read: %w", err)
	}
	if m.Type != MsgHello {
		return fmt.Errorf("dist: expected hello, got %s", m.Type)
	}
	worker := m.Hello.Worker
	if m.Hello.Version != ProtocolVersion {
		c.rejects.Inc()
		_ = Encode(conn, &Message{Type: MsgReject, Reject: &Reject{
			Code:   RejectVersion,
			Detail: fmt.Sprintf("coordinator speaks v%d, worker v%d", ProtocolVersion, m.Hello.Version),
		}})
		return fmt.Errorf("dist: worker %s: %w", worker, ErrVersionMismatch)
	}
	t1 := c.now()
	welcome := &Welcome{
		Env:           *c.env,
		LeaseTTLMS:    c.opts.LeaseTTL.Milliseconds(),
		CoordUnixNano: t1.UnixNano(),
		TraceID:       c.traceID,
	}
	if err := Encode(conn, &Message{Type: MsgWelcome, Welcome: welcome}); err != nil {
		return err
	}
	if m, err = Decode(r); err != nil {
		return fmt.Errorf("dist: handshake read: %w", err)
	}
	t2 := c.now()
	if m.Type != MsgConfirm {
		return fmt.Errorf("dist: expected confirm, got %s", m.Type)
	}
	if m.Confirm.SpaceSig != c.env.SpaceSig {
		c.rejects.Inc()
		_ = Encode(conn, &Message{Type: MsgReject, Reject: &Reject{
			Code:   RejectSpace,
			Detail: fmt.Sprintf("coordinator %s, worker %s", c.env.SpaceSig, m.Confirm.SpaceSig),
		}})
		return fmt.Errorf("dist: worker %s: %w", worker, ErrSpaceMismatch)
	}
	if err := Encode(conn, &Message{Type: MsgAccept}); err != nil {
		return err
	}

	sess := &session{name: worker, leases: make(map[uint64]*leaseInfo)}
	// NTP-style offset from the handshake stamps: the worker's space
	// reconstruction between its Recv and Send stamps is excluded, so
	// the round trip is pure wire + framing time.
	if wr, ws := m.Confirm.RecvUnixNano, m.Confirm.SendUnixNano; wr != 0 && ws != 0 {
		sess.rttNS = t2.Sub(t1).Nanoseconds() - (ws - wr)
		sess.offsetNS = ((wr - t1.UnixNano()) + (ws - t2.UnixNano())) / 2
	}
	c.mu.Lock()
	c.nextLane++
	sess.lane = 100 + c.nextLane // lanes 101+ keep worker spans off the tuner's lane 1
	t := c.tallyLocked(worker)
	t.sessions++
	t.cur = sess
	t.lastSeen = c.now()
	c.mu.Unlock()
	c.opts.Obs.Gauge(MetricWorkersConnected).Add(1)
	obs.RecordEvent("worker-connected", "worker", worker,
		"rtt_ns", strconv.FormatInt(sess.rttNS, 10), "offset_ns", strconv.FormatInt(sess.offsetNS, 10))
	defer c.dropSession(sess)
	for {
		// Once the coordinator is closed, bound the wait for the worker's
		// next request so a wedged worker cannot stall Close forever; a
		// responsive worker gets its polite Closed grant well within the
		// lease TTL. (Kernel read deadlines are wall-clock by definition,
		// so this deliberately bypasses the injectable Clock.)
		if c.isClosed() {
			_ = conn.SetReadDeadline(time.Now().Add(c.opts.LeaseTTL))
		}
		m, err := Decode(r)
		if err != nil {
			return err
		}
		switch m.Type {
		case MsgLeaseReq:
			leases, closed := c.lease(sess, m.LeaseReq.Max)
			grant := &Message{Type: MsgLeaseGrant, LeaseGrant: &LeaseGrant{Leases: leases, Closed: closed}}
			if err := Encode(conn, grant); err != nil {
				return err
			}
			if closed {
				return nil
			}
		case MsgResult:
			c.applyResults(sess, m.Result)
		case MsgStatsPush:
			c.absorbStats(sess, m.StatsPush)
		case MsgGoodbye:
			obs.RecordEvent("worker-goodbye", "worker", worker,
				"reason", m.Goodbye.Reason)
			return nil
		default:
			return fmt.Errorf("dist: unexpected %s mid-session", m.Type)
		}
	}
}

// Serve accepts worker connections until the listener closes, then
// waits for every accepted session to finish — so that workers receive
// their Closed grant before the caller tears the process down.
func (c *Coordinator) Serve(ln net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = c.ServeConn(conn)
		}()
	}
}
