package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoblox/internal/obs"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// TestCacheKeyRegression guards the struct-key fix: the former string
// key cfg.Key()+"|"+name could not tell ("a", "b|c") from ("a|b", "c").
func TestCacheKeyRegression(t *testing.T) {
	if cacheKey("a", "b|c") == cacheKey("a|b", "c") {
		t.Fatal("cache key collides across the config/name boundary")
	}
	if cacheKey("a", "b") != cacheKey("a", "b") {
		t.Fatal("identical inputs must produce identical keys")
	}
}

// TestCacheKeyPipeClusterNames is the behavioral half of the regression:
// a validator whose cluster names contain the old separator must still
// treat distinct (config, trace) pairs as distinct simulations.
func TestCacheKeyPipeClusterNames(t *testing.T) {
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	tr := workload.MustGenerate(workload.Database, workload.Options{Requests: 1500, Seed: 3})
	v := NewValidator(space, map[string]*trace.Trace{"a|b": tr, "a": tr})
	ref := space.FromDevice(ssd.Intel750())
	if _, err := v.MeasureTrace(context.Background(), ref, "a|b#0", tr.Factory()); err != nil {
		t.Fatal(err)
	}
	if _, err := v.MeasureTrace(context.Background(), ref, "a#0", tr.Factory()); err != nil {
		t.Fatal(err)
	}
	if got := v.SimRuns(); got != 2 {
		t.Fatalf("SimRuns = %d, want 2 distinct simulations", got)
	}
}

// distinctConfigs derives n configurations with distinct cache keys by
// walking one numeric parameter's grid.
func distinctConfigs(t *testing.T, space *ssdconf.Space, ref ssdconf.Config, n int) []ssdconf.Config {
	t.Helper()
	i, err := space.ParamIndex("QueueDepth")
	if err != nil {
		t.Fatal(err)
	}
	vals := len(space.Params[i].Values)
	if n > vals {
		t.Fatalf("need %d values on QueueDepth, grid has %d", n, vals)
	}
	out := make([]ssdconf.Config, n)
	for k := 0; k < n; k++ {
		cfg := ref.Clone()
		cfg[i] = k
		out[k] = cfg
	}
	return out
}

// TestMeasureBatchMatchesSerial: the parallel batch path must fill the
// cache with measurements identical to the serial MeasureTrace path.
func TestMeasureBatchMatchesSerial(t *testing.T) {
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	ws := map[string]*trace.Trace{
		"Database":  workload.MustGenerate(workload.Database, workload.Options{Requests: 1500, Seed: 5}),
		"WebSearch": workload.MustGenerate(workload.WebSearch, workload.Options{Requests: 1500, Seed: 5}),
	}
	ref := space.FromDevice(ssd.Intel750())
	cfgs := distinctConfigs(t, space, ref, 3)

	serial := NewValidator(space, ws)
	serial.Parallel = 1
	par := NewValidator(space, ws)
	par.Parallel = 8

	if err := par.MeasureBatch(context.Background(), cfgs, par.Clusters()); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		for _, cl := range serial.Clusters() {
			name := cl + "#0"
			a, err := serial.MeasureTrace(context.Background(), cfg, name, ws[cl].Factory())
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.MeasureTrace(context.Background(), cfg, name, ws[cl].Factory()) // cache hit
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("parallel result differs for %s/%s:\n serial   %+v\n parallel %+v",
					cfg.Key(), name, a, b)
			}
		}
	}
	want := len(cfgs) * len(ws)
	if got := par.SimRuns(); got != want {
		t.Fatalf("parallel SimRuns = %d, want %d", got, want)
	}
}

// TestSingleflightStress hammers the validator from 64 goroutines with
// heavily overlapping keys. Exactly one simulation per distinct key may
// run: SimRuns must equal the number of distinct (config, trace) pairs.
func TestSingleflightStress(t *testing.T) {
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	ws := map[string]*trace.Trace{
		"Database": workload.MustGenerate(workload.Database, workload.Options{Requests: 1500, Seed: 7}),
		"KVStore":  workload.MustGenerate(workload.KVStore, workload.Options{Requests: 1500, Seed: 7}),
	}
	v := NewValidator(space, ws)
	v.Parallel = 8
	ref := space.FromDevice(ssd.Intel750())
	cfgs := distinctConfigs(t, space, ref, 4)
	clusters := v.Clusters()

	const goroutines = 64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				// Half the goroutines batch everything at once...
				if err := v.MeasureBatch(context.Background(), cfgs, clusters); err != nil {
					errs <- err
				}
				return
			}
			// ...the rest issue single lookups in rotating order.
			for k := 0; k < len(cfgs)*len(clusters); k++ {
				cfg := cfgs[(g+k)%len(cfgs)]
				cl := clusters[(g+k)%len(clusters)]
				if _, err := v.MeasureTrace(context.Background(), cfg, cl+"#0", ws[cl].Factory()); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	distinct := len(cfgs) * len(clusters)
	if got := v.SimRuns(); got != distinct {
		t.Fatalf("SimRuns = %d, want %d (duplicate simulation slipped past singleflight)", got, distinct)
	}

	// Dedup accounting: every MeasureTrace call resolves as exactly one of
	// {fresh simulation, cache hit, coalesced wait}. The batching half
	// issues 8 lookups per MeasureBatch, the lookup half 8 each.
	st := v.Stats()
	totalCalls := int64(goroutines * len(cfgs) * len(clusters))
	if st.SimRuns != int64(distinct) {
		t.Fatalf("Stats().SimRuns = %d, want %d", st.SimRuns, distinct)
	}
	if got := st.SimRuns + st.CacheHits + st.CoalescedWaits; got != totalCalls {
		t.Fatalf("fresh(%d) + cacheHits(%d) + coalesced(%d) = %d, want %d total MeasureTrace calls",
			st.SimRuns, st.CacheHits, st.CoalescedWaits, got, totalCalls)
	}
	if st.SimBusy <= 0 || st.WallSpan <= 0 {
		t.Fatalf("Stats() timing not recorded: SimBusy=%v WallSpan=%v", st.SimBusy, st.WallSpan)
	}
}

// parallelTunerEnv is testEnv with an explicit worker bound, applied
// before the grader's reference batch so every simulation goes through
// the configured pool.
func parallelTunerEnv(t *testing.T, parallel int, reg *obs.Registry) (*ssdconf.Space, *Validator, *Grader, ssdconf.Config) {
	t.Helper()
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	ws := map[string]*trace.Trace{}
	for _, c := range []workload.Category{workload.Database, workload.WebSearch, workload.CloudStorage} {
		ws[string(c)] = workload.MustGenerate(c, workload.Options{Requests: 2000, Seed: 21})
	}
	v := NewValidator(space, ws)
	v.Parallel = parallel
	v.Obs = reg
	ref := space.FromDevice(ssd.Intel750())
	g, err := NewGrader(context.Background(), v, ref, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	return space, v, g, ref
}

// TestTuneSerialParallelEquivalence is the acceptance-criteria test:
// Tune at -parallel 1 and -parallel 8 with the same seed must return the
// identical best configuration, grade, trajectory and simulation count —
// and so must a fully instrumented run (metrics registry + active
// tracer), proving observability never perturbs results.
func TestTuneSerialParallelEquivalence(t *testing.T) {
	run := func(parallel int, reg *obs.Registry) *TuneResult {
		space, v, g, ref := parallelTunerEnv(t, parallel, reg)
		tuner, err := NewTuner(space, v, g, TunerOptions{Seed: 5, MaxIterations: 6, SGDSteps: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tuner.Tune(context.Background(), string(workload.Database), []ssdconf.Config{ref})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1, nil)
	parallel := run(8, nil)

	// Third run: parallel AND observed — metrics registry attached and a
	// live global tracer capturing spans. Must be bit-for-bit identical
	// to the uninstrumented serial run.
	reg := obs.NewRegistry()
	var traceBuf bytes.Buffer
	obs.SetTracer(obs.NewTracer(&traceBuf))
	observed := run(8, reg)
	obs.SetTracer(nil)

	check := func(label string, got *TuneResult) {
		t.Helper()
		if !ssdconf.Equal(serial.Best, got.Best) {
			t.Fatalf("best configs differ:\n serial %s\n %s %s",
				serial.Best.Key(), label, got.Best.Key())
		}
		if serial.BestGrade != got.BestGrade {
			t.Fatalf("best grades differ: serial %v, %s %v", serial.BestGrade, label, got.BestGrade)
		}
		if serial.Iterations != got.Iterations {
			t.Fatalf("iteration counts differ: serial %d, %s %d", serial.Iterations, label, got.Iterations)
		}
		if len(serial.Trajectory) != len(got.Trajectory) {
			t.Fatalf("trajectory lengths differ: %d vs %s %d", len(serial.Trajectory), label, len(got.Trajectory))
		}
		for i := range serial.Trajectory {
			if serial.Trajectory[i] != got.Trajectory[i] {
				t.Fatalf("trajectories diverge at %d: %v vs %s %v",
					i, serial.Trajectory[i], label, got.Trajectory[i])
			}
		}
		if serial.SimRuns != got.SimRuns {
			t.Fatalf("simulation counts differ: serial %d, %s %d (a duplicate or skipped sim)",
				serial.SimRuns, label, got.SimRuns)
		}
	}
	check("parallel", parallel)
	check("observed", observed)

	// The instrumented run must actually have produced telemetry.
	if got := reg.Counter(MetricSimRuns).Value(); got == 0 {
		t.Fatal("instrumented run recorded no simulations in the registry")
	}
	if reg.Histogram(MetricSimTime).Count() == 0 {
		t.Fatal("instrumented run recorded no sim-time samples")
	}
	if !bytes.Contains(traceBuf.Bytes(), []byte(`"name":"tune"`)) ||
		!bytes.Contains(traceBuf.Bytes(), []byte(`"name":"iteration"`)) {
		t.Fatalf("trace output missing tune/iteration spans:\n%.500s", traceBuf.String())
	}
}

// TestNewGraderReadsNoCacheBack: the reference batch hands its results
// back, so a fresh validator simulates each trace once and serves no
// cache hit.
func TestNewGraderReadsNoCacheBack(t *testing.T) {
	_, v, g, _ := testEnv(t, []workload.Category{workload.Database, workload.WebSearch, workload.KVStore}, 600)
	traces := 0
	for _, fs := range v.Workloads {
		traces += len(fs)
	}
	st := v.Stats()
	if st.CacheHits != 0 || st.SimRuns != int64(traces) {
		t.Fatalf("NewGrader: CacheHits = %d, SimRuns = %d; want 0 and %d", st.CacheHits, st.SimRuns, traces)
	}
	for _, cl := range v.Clusters() {
		if len(g.Ref[cl]) != len(v.Workloads[cl]) {
			t.Fatalf("Ref[%s] has %d results for %d traces", cl, len(g.Ref[cl]), len(v.Workloads[cl]))
		}
	}
}

// TestBatchReturnsFailingJobError: a batch with one failing job returns
// that job's error, not the context.Canceled its cancelled siblings
// see, and caches nothing for it.
func TestBatchReturnsFailingJobError(t *testing.T) {
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	errBad := errors.New("bad trace")
	groups := map[string][]trace.SourceFactory{}
	for _, c := range []workload.Category{workload.Database, workload.WebSearch, workload.KVStore} {
		tr := workload.MustGenerate(c, workload.Options{Requests: 3000, Seed: 3})
		groups[string(c)] = []trace.SourceFactory{tr.Factory(), tr.Factory()}
		if c == workload.Database {
			groups["Bad"] = []trace.SourceFactory{func() trace.Source {
				return &failingSource{Source: tr.Source(), after: 100, err: errBad}
			}}
		}
	}
	v := NewValidatorSources(space, groups)
	v.Parallel = 2
	cfgs := distinctConfigs(t, space, space.FromDevice(ssd.Intel750()), 3)
	err := v.MeasureBatch(context.Background(), cfgs, v.Clusters())
	if !errors.Is(err, errBad) || errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want the failing job's error", err)
	}
	for _, e := range v.SnapshotCache() {
		if e.Name == "Bad#0" {
			t.Fatalf("failed job cached: %+v", e)
		}
	}
}

// TestBatchBoundedBySlots: a batch starts every job at once, so the
// local backend's slot semaphore alone bounds concurrency. Trace builds
// run inside a slot, so counting factories see at most Parallel of them
// at a time, and a batch wider than the bound fills every slot.
func TestBatchBoundedBySlots(t *testing.T) {
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	tr := workload.MustGenerate(workload.Database, workload.Options{Requests: 300, Seed: 9})
	var running, peak atomic.Int32
	counting := func() trace.Source {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(20 * time.Millisecond)
		running.Add(-1)
		return tr.Source()
	}
	groups := map[string][]trace.SourceFactory{}
	for i := 0; i < 6; i++ {
		groups[fmt.Sprintf("C%d", i)] = []trace.SourceFactory{counting}
	}
	v := NewValidatorSources(space, groups)
	v.Parallel = 2
	if err := v.MeasureBatch(context.Background(), []ssdconf.Config{space.FromDevice(ssd.Intel750())}, v.Clusters()); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != 2 {
		t.Fatalf("peak concurrent trace builds = %d, want exactly Parallel = 2", got)
	}
}
