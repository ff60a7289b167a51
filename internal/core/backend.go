package core

import (
	"context"
	"sync/atomic"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
)

// Job is one (configuration, trace) measurement handed to a Backend.
// Src is the local streaming source; remote backends ignore it and
// reconstruct the trace worker-side from the canonical name
// ("<cluster>#<i>") instead.
type Job struct {
	Cfg  ssdconf.Config
	Name string
	Src  trace.SourceFactory
}

// Backend executes measurements for a Validator. The validator keeps
// ownership of memoization and singleflight; a backend only ever sees
// cold keys, exactly once per concurrent wave. Implementations must be
// safe for concurrent Measure calls and must return bit-identical
// results for identical jobs (the serial ≡ parallel ≡ distributed
// guarantee rests on it).
//
// The in-process backend (nil Validator.Backend) and the dist package's
// coordinator/worker fleet are the two implementations.
type Backend interface {
	Measure(ctx context.Context, job Job) (autodb.Perf, error)
	Stats() BackendStats
}

// Backend kinds reported through BackendStats.Kind.
const (
	BackendKindLocal = "local"
	BackendKindDist  = "dist"
)

// BackendStats decomposes where a backend's jobs spent their time.
// ValidatorStats.WallSpan deliberately measures something else (real
// elapsed span); this split keeps queue-wait and in-sim time separate
// per backend, so a remote fleet's queueing delay is never conflated
// with local pool busy time.
type BackendStats struct {
	// Kind identifies the implementation ("local", "dist", ...).
	Kind string
	// Jobs counts completed Measure calls (including failed ones).
	Jobs int64
	// QueueWait is the cumulative time jobs waited before execution
	// started: submit-to-slot for the local backend, submit-to-first-lease
	// for a distributed fleet. A batch submits every job without waiting
	// for any to finish, so a batch wider than the bound queues here.
	QueueWait time.Duration
	// SimBusy is the cumulative execution time: in-simulator time for
	// the local pool, worker-reported per-job time for a fleet.
	SimBusy time.Duration
	// LeasesExpired / LeasesReassigned count fleet lease churn (always 0
	// for the local pool). A fleet's per-worker decomposition is its
	// status view (dist.FleetStatus.Workers).
	LeasesExpired    int64
	LeasesReassigned int64
}

// BackendCounters accumulates the BackendStats decomposition; embed one
// in a Backend and Record every completed job.
type BackendCounters struct {
	jobs      atomic.Int64
	queueWait atomic.Int64
	simBusy   atomic.Int64
}

// Record folds one completed job into the counters.
func (c *BackendCounters) Record(queueWait, simBusy time.Duration) {
	c.jobs.Add(1)
	c.queueWait.Add(queueWait.Nanoseconds())
	c.simBusy.Add(simBusy.Nanoseconds())
}

// Snapshot returns a point-in-time BackendStats under the given kind.
func (c *BackendCounters) Snapshot(kind string) BackendStats {
	return BackendStats{
		Kind:      kind,
		Jobs:      c.jobs.Load(),
		QueueWait: time.Duration(c.queueWait.Load()),
		SimBusy:   time.Duration(c.simBusy.Load()),
	}
}

// localBackend is the default in-process backend: a validator-wide
// semaphore of Parallel slots is the only bound on concurrent
// simulations, and each Measure runs the simulation on the calling
// goroutine once it holds a slot.
type localBackend struct {
	v *Validator
	c BackendCounters
}

func (b *localBackend) Measure(ctx context.Context, job Job) (autodb.Perf, error) {
	sem := b.v.slots()
	waitStart := time.Now()
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		return autodb.Perf{}, ctx.Err()
	}
	wait := time.Since(waitStart)
	b.v.Obs.Histogram(MetricQueueWait).Record(wait.Nanoseconds())
	perf, simDur, err := b.v.simulate(ctx, job)
	<-sem
	b.c.Record(wait, simDur)
	return perf, err
}

func (b *localBackend) Stats() BackendStats { return b.c.Snapshot(BackendKindLocal) }
