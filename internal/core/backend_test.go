package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// stubBackend plays a remote fleet with a fixed, known timing
// decomposition: every job reports exactly stubQueueWait of queueing
// and stubSimBusy of execution.
const (
	stubQueueWait = 3 * time.Millisecond
	stubSimBusy   = 7 * time.Millisecond
)

type stubBackend struct {
	c BackendCounters
}

func (b *stubBackend) Measure(ctx context.Context, job Job) (autodb.Perf, error) {
	b.c.Record(stubQueueWait, stubSimBusy)
	return autodb.Perf{LatencyNS: int64(len(job.Name)), ThroughputBps: 1}, nil
}

func (b *stubBackend) Stats() BackendStats { return b.c.Snapshot("stub") }

// TestBackendStatsDecomposition pins the Stats() split introduced with
// pluggable backends: the validator-level counters (SimRuns/CacheHits/
// CoalescedWaits/RemoteResults) stay an exact accounting of MeasureTrace
// calls, while Backend reports the executing backend's own queue-wait vs
// execution-time decomposition — so a remote fleet's queueing delay is
// never folded into local pool busy time.
func TestBackendStatsDecomposition(t *testing.T) {
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	ws := map[string]*trace.Trace{
		"Database": workload.MustGenerate(workload.Database, workload.Options{Requests: 1200, Seed: 11}),
	}
	ref := space.FromDevice(ssd.Intel750())
	ctx := context.Background()

	t.Run("local", func(t *testing.T) {
		v := NewValidator(space, ws)
		v.Parallel = 2
		cfgs := distinctConfigs(t, space, ref, 3)
		if err := v.MeasureBatch(ctx, cfgs, v.Clusters()); err != nil {
			t.Fatal(err)
		}
		st := v.Stats()
		if st.RemoteResults != 0 {
			t.Fatalf("local pool recorded %d remote results", st.RemoteResults)
		}
		if st.Backend.Kind != BackendKindLocal {
			t.Fatalf("Backend.Kind = %q, want %q", st.Backend.Kind, BackendKindLocal)
		}
		if st.Backend.Jobs != st.SimRuns {
			t.Fatalf("local backend Jobs = %d, want SimRuns = %d", st.Backend.Jobs, st.SimRuns)
		}
		// The local backend's SimBusy is fed from the same successful-attempt
		// durations as the validator's aggregate, so they must agree exactly.
		if st.Backend.SimBusy != st.SimBusy {
			t.Fatalf("local backend SimBusy = %v, validator SimBusy = %v (decomposition drifted)",
				st.Backend.SimBusy, st.SimBusy)
		}
		if st.Backend.QueueWait < 0 {
			t.Fatalf("negative queue wait: %v", st.Backend.QueueWait)
		}
	})

	t.Run("remote", func(t *testing.T) {
		v := NewValidator(space, ws)
		v.Backend = &stubBackend{}
		cfgs := distinctConfigs(t, space, ref, 4)
		const name = "Database#0"
		for _, cfg := range cfgs {
			if _, err := v.MeasureTrace(ctx, cfg, name, ws["Database"].Factory()); err != nil {
				t.Fatal(err)
			}
		}
		// Second pass over the same keys: pure cache hits, backend untouched.
		for _, cfg := range cfgs {
			if _, err := v.MeasureTrace(ctx, cfg, name, ws["Database"].Factory()); err != nil {
				t.Fatal(err)
			}
		}
		st := v.Stats()
		if st.SimRuns != 0 {
			t.Fatalf("remote backend run recorded %d local SimRuns", st.SimRuns)
		}
		if st.RemoteResults != int64(len(cfgs)) {
			t.Fatalf("RemoteResults = %d, want %d", st.RemoteResults, len(cfgs))
		}
		if st.CacheHits != int64(len(cfgs)) {
			t.Fatalf("CacheHits = %d, want %d", st.CacheHits, len(cfgs))
		}
		// Accounting law with a remote backend: every call is exactly one of
		// {local sim, cache hit, coalesced wait, remote result}.
		calls := int64(2 * len(cfgs))
		if got := st.SimRuns + st.CacheHits + st.CoalescedWaits + st.RemoteResults; got != calls {
			t.Fatalf("accounting law broken: sim(%d)+hits(%d)+coalesced(%d)+remote(%d) = %d, want %d",
				st.SimRuns, st.CacheHits, st.CoalescedWaits, st.RemoteResults, got, calls)
		}
		// The stub's decomposition must surface unchanged: queue wait and
		// execution time stay separate, never summed into one bucket.
		if st.Backend.Kind != "stub" {
			t.Fatalf("Backend.Kind = %q, want stub", st.Backend.Kind)
		}
		if want := time.Duration(len(cfgs)) * stubQueueWait; st.Backend.QueueWait != want {
			t.Fatalf("Backend.QueueWait = %v, want %v", st.Backend.QueueWait, want)
		}
		if want := time.Duration(len(cfgs)) * stubSimBusy; st.Backend.SimBusy != want {
			t.Fatalf("Backend.SimBusy = %v, want %v", st.Backend.SimBusy, want)
		}
		// And the local-pool aggregate stays zero: remote time is not wall
		// time spent in this process's simulators.
		if st.SimBusy != 0 {
			t.Fatalf("validator SimBusy = %v for a purely remote run, want 0", st.SimBusy)
		}
	})
}

// blockingBackend blocks its first Measure until the caller's context
// ends; every later call succeeds at once.
type blockingBackend struct {
	entered chan struct{}
	calls   atomic.Int32
	c       BackendCounters
}

func (b *blockingBackend) Measure(ctx context.Context, job Job) (autodb.Perf, error) {
	if b.calls.Add(1) == 1 {
		close(b.entered)
		<-ctx.Done()
		return autodb.Perf{}, ctx.Err()
	}
	return autodb.Perf{LatencyNS: 1, ThroughputBps: 1}, nil
}

func (b *blockingBackend) Stats() BackendStats { return b.c.Snapshot("blocking") }

// TestCoalescedWaiterOutlivesCancelledLeader: a waiter coalesced onto a
// leader whose own context is cancelled must not inherit that
// cancellation; with its context live it measures the key itself.
func TestCoalescedWaiterOutlivesCancelledLeader(t *testing.T) {
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	tr := workload.MustGenerate(workload.Database, workload.Options{Requests: 300, Seed: 11})
	be := &blockingBackend{entered: make(chan struct{})}
	v := NewValidator(space, map[string]*trace.Trace{"Database": tr})
	v.Backend = be
	cfg := space.FromDevice(ssd.Intel750())

	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := v.MeasureTrace(leaderCtx, cfg, "Database#0", tr.Factory())
		leaderErr <- err
	}()
	<-be.entered

	type result struct {
		perf autodb.Perf
		err  error
	}
	waiter := make(chan result, 1)
	go func() {
		p, err := v.MeasureTrace(context.Background(), cfg, "Database#0", tr.Factory())
		waiter <- result{p, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for v.Stats().CoalescedWaits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced onto the leader")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	r := <-waiter
	if r.err != nil {
		t.Fatalf("waiter inherited its leader's error: %v", r.err)
	}
	if want := (autodb.Perf{LatencyNS: 1, ThroughputBps: 1}); r.perf != want {
		t.Fatalf("waiter perf = %+v, want %+v", r.perf, want)
	}
}
