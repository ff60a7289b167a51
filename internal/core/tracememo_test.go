package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// countingFactories returns generator-backed factories for two traces
// of each cluster and a per-name tally of factory calls.
func countingFactories(t *testing.T, clusters []workload.Category, requests int) (map[string][]trace.SourceFactory, map[string]*atomic.Int32) {
	t.Helper()
	groups := map[string][]trace.SourceFactory{}
	calls := map[string]*atomic.Int32{}
	for _, c := range clusters {
		for i := 0; i < 2; i++ {
			f, err := workload.Factory(c, workload.Options{Requests: requests, Seed: int64(31 + i)})
			if err != nil {
				t.Fatal(err)
			}
			n := new(atomic.Int32)
			calls[traceName(string(c), i)] = n
			groups[string(c)] = append(groups[string(c)], func() trace.Source {
				n.Add(1)
				return f()
			})
		}
	}
	return groups, calls
}

// TestTraceMemoBuildsEachTraceOnce: across two simulation slots and
// many configurations, each trace name's factory runs exactly once.
func TestTraceMemoBuildsEachTraceOnce(t *testing.T) {
	clusters := []workload.Category{workload.Database, workload.WebSearch}
	groups, calls := countingFactories(t, clusters, 1500)
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	v := NewValidatorSources(space, groups)
	v.Parallel = 2
	ref := space.FromDevice(ssd.Intel750())
	cfgs := distinctConfigs(t, space, ref, 4)
	if err := v.MeasureBatch(context.Background(), cfgs, v.Clusters()); err != nil {
		t.Fatal(err)
	}
	if got, want := v.SimRuns(), len(cfgs)*len(calls); got != want {
		t.Fatalf("SimRuns = %d, want %d", got, want)
	}
	for name, n := range calls {
		if got := n.Load(); got != 1 {
			t.Errorf("%s: factory ran %d times for %d simulations, want once", name, got, len(cfgs))
		}
	}

	// The memoized replay measures what a fresh generator cursor does.
	sim, err := ssd.NewSimulator(space.ToDevice(cfgs[2]))
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range v.Clusters() {
		for i, f := range groups[cl] {
			name := traceName(cl, i)
			got, err := v.MeasureTrace(context.Background(), cfgs[2], name, f)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.RunSource(f())
			if err != nil {
				t.Fatal(err)
			}
			if got.LatencyNS != want.AvgLatency.Nanoseconds() || got.P99LatencyNS != want.P99Latency.Nanoseconds() ||
				got.ThroughputBps != want.ThroughputBps || got.EnergyJoules != want.EnergyJoules {
				t.Fatalf("%s: memoized replay measured %+v, a fresh cursor %+v", name, got, want)
			}
		}
	}
}

// TestTraceMemoSharesInMemoryTrace: a trace already in memory is
// replayed from its own request slice, not a copy.
func TestTraceMemoSharesInMemoryTrace(t *testing.T) {
	v, ref, tr := resilienceEnv(t)
	if _, err := v.MeasureTrace(context.Background(), ref, "Database#0", tr.Factory()); err != nil {
		t.Fatal(err)
	}
	got := v.traces.slot("Database#0").tr.Load()
	if got == nil || len(got.Requests) != len(tr.Requests) || &got.Requests[0] != &tr.Requests[0] {
		t.Fatal("the memo copied a trace that was already in memory")
	}
}

// cancelAfterSource cancels a context at its after-th request, as an
// interrupted tune would in the middle of a trace build.
type cancelAfterSource struct {
	trace.Source
	after, n int
	cancel   context.CancelFunc
}

func (c *cancelAfterSource) Next() (trace.Request, bool) {
	if c.n++; c.n == c.after {
		c.cancel()
	}
	return c.Source.Next()
}

// TestTraceMemoFailedBuildNotKept: a build cancelled part-way, or one
// whose factory panics, leaves no memo entry, and the next measurement
// of the name builds the trace afresh.
func TestTraceMemoFailedBuildNotKept(t *testing.T) {
	v, ref, _ := resilienceEnv(t)
	f, err := workload.Factory(workload.Database, workload.Options{Requests: 5000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	factory := func() trace.Source {
		switch calls.Add(1) {
		case 1:
			return &cancelAfterSource{Source: f(), after: 3000, cancel: cancel}
		case 2:
			panic("factory poisoned")
		}
		return f()
	}

	if _, err := v.MeasureTrace(ctx, ref, "Database#0", factory); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err = %v, want context.Canceled", err)
	}
	if v.traces.slot("Database#0").tr.Load() != nil {
		t.Fatal("a cancelled build left a memo entry")
	}
	var pe *PanicError
	if _, err := v.MeasureTrace(context.Background(), ref, "Database#0", factory); !errors.As(err, &pe) {
		t.Fatalf("panicking factory: err = %v, want *PanicError", err)
	}
	if v.traces.slot("Database#0").tr.Load() != nil {
		t.Fatal("a panicked build left a memo entry")
	}
	if _, err := v.MeasureTrace(context.Background(), ref, "Database#0", factory); err != nil {
		t.Fatalf("rebuild after failures: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("factory ran %d times, want 3 (two failed builds, one rebuild)", got)
	}
	if tr := v.traces.slot("Database#0").tr.Load(); tr == nil || len(tr.Requests) != 5000 {
		t.Fatal("the rebuilt trace was not memoized in full")
	}
}

// TestTraceMemoColdRace: callers racing on a cold name build its trace
// once and all replay the same slice. Run it under -race.
func TestTraceMemoColdRace(t *testing.T) {
	f, err := workload.Factory(workload.Database, workload.Options{Requests: 3000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	factory := func() trace.Source {
		calls.Add(1)
		return f()
	}
	var m traceMemo
	const callers = 4
	start := make(chan struct{})
	srcs := make([]trace.Source, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			srcs[i], errs[i] = m.source(context.Background(), "Database#0", factory)
		}(i)
	}
	close(start)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("factory ran %d times for %d racing callers, want once", got, callers)
	}
	want, ok := trace.Shared(srcs[0])
	if errs[0] != nil || !ok || len(want.Requests) != 3000 {
		t.Fatalf("caller 0: err %v, source %T", errs[0], srcs[0])
	}
	for i := 1; i < callers; i++ {
		got, ok := trace.Shared(srcs[i])
		if errs[i] != nil || !ok || &got.Requests[0] != &want.Requests[0] {
			t.Fatalf("caller %d: err %v, not a cursor over the one memoized slice", i, errs[i])
		}
	}
}
