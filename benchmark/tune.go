package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"autoblox"
	"autoblox/internal/autodb"
	"autoblox/internal/core"
	"autoblox/internal/dist"
	"autoblox/internal/obs"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

const (
	tuneTarget = "Database"
	// tuneParallel is the simulation concurrency inside one operation:
	// the local pool's slots, or the number of loopback workers.
	tuneParallel = 2
)

// tuneShape sizes a tune workload.
type tuneShape struct {
	objectives string // "" selects the scalar grade
	requests   int    // records per studied training trace
	iters      int    // tuner MaxIterations
	fleet      bool   // route simulations through a loopback dist fleet
}

func shapeFor(cfg runConfig) tuneShape {
	s := tuneShape{requests: 12000, iters: 20}
	if cfg.workload == "tune-pareto" {
		s = tuneShape{objectives: "perf,power,lifetime", requests: 6000, iters: 20, fleet: true}
	}
	if cfg.smoke {
		s.requests, s.iters = 1500, 2
	}
	return s
}

// studiedFactories generates the seven studied categories, the corpus
// every tune learns from and validates against.
func studiedFactories(requests int, seed int64) ([]trace.SourceFactory, error) {
	var out []trace.SourceFactory
	for _, cat := range workload.Studied() {
		f, err := workload.Factory(cat, workload.Options{Requests: requests, Seed: seed})
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// newSpace builds the tuning space and reference configuration the way
// autoblox.New does.
func newSpace(spec autoblox.ObjectiveSpec) (*ssdconf.Space, ssdconf.Config) {
	space := ssdconf.NewSpace(autoblox.DefaultConstraints())
	space.Objectives = spec
	return space, space.FromDevice(ssd.Intel750())
}

// startFleet starts a coordinator with two loopback workers over the
// studied corpus, built as cmd/autoblox builds it, and waits until both
// workers have completed their handshake.
func startFleet(ctx context.Context, shape tuneShape, spec autoblox.ObjectiveSpec, seed int64, reg *obs.Registry) (*dist.Fleet, error) {
	specs := make(map[string][]dist.WorkloadSpec)
	for _, cat := range workload.Studied() {
		specs[string(cat)] = []dist.WorkloadSpec{{Category: string(cat), Requests: shape.requests, Seed: seed}}
	}
	env, err := dist.NewEnv(autoblox.DefaultConstraints(), false, ssd.FaultProfile{}, specs)
	if err != nil {
		return nil, err
	}
	if !spec.Scalar() {
		env.SetObjectives(spec)
	}
	fl, err := dist.StartFleet(env, dist.FleetOptions{Workers: tuneParallel, WorkerParallel: 1, Obs: reg})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		connected := 0
		for _, w := range fl.Status().Workers {
			if w.Connected {
				connected++
			}
		}
		if connected == tuneParallel {
			return fl, nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			fl.Close()
			return nil, fmt.Errorf("fleet handshake: %d of %d workers connected", connected, tuneParallel)
		}
		time.Sleep(time.Millisecond)
	}
}

// tuneOutcome is one tune operation's result and cost.
type tuneOutcome struct {
	res   *autoblox.TuneResult
	sims  int64 // fresh simulations: reference batch, pruning and search
	wall  time.Duration
	setup time.Duration
	alloc uint64 // heap bytes allocated during the tune call
}

// allocSince returns the heap bytes allocated since before was read.
func allocSince(before *runtime.MemStats) uint64 {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// tuneEnv is a freshly set-up Framework: a fresh AutoDB file, a cold
// simulation cache, the corpus learned, and for tune-pareto a started
// fleet whose workers have completed their handshake.
type tuneEnv struct {
	fw    *autoblox.Framework
	reg   *obs.Registry
	setup time.Duration
	fleet *dist.Fleet
	db    string
}

func (e *tuneEnv) close() {
	e.fw.Close()
	os.Remove(e.db)
	if e.fleet != nil {
		e.fleet.Close()
	}
}

// openTune performs and times one set-up.
func openTune(ctx context.Context, cfg runConfig, shape tuneShape, spec autoblox.ObjectiveSpec) (*tuneEnv, error) {
	t0 := time.Now()
	e := &tuneEnv{reg: obs.NewRegistry(), db: filepath.Join(cfg.workdir, fmt.Sprintf("tune-%d.db", os.Getpid()))}
	_ = os.Remove(e.db) // a leftover from a killed run; absence is the normal case
	opts := autoblox.Options{
		DBPath: e.db, Seed: cfg.corpusSeed, Parallel: tuneParallel, Metrics: e.reg,
		Tuner: autoblox.TunerOptions{MaxIterations: shape.iters}, Objectives: spec,
	}
	if shape.fleet {
		// The workers get their own registry, as the Framework's local
		// pool records into opts.Metrics; sharing one would count every
		// simulation twice.
		fl, err := startFleet(ctx, shape, spec, cfg.corpusSeed, obs.NewRegistry())
		if err != nil {
			return nil, err
		}
		e.fleet = fl
		opts.Backend = fl.Backend()
	}
	fw, err := autoblox.New(autoblox.DefaultConstraints(), opts)
	if err != nil {
		if e.fleet != nil {
			e.fleet.Close()
		}
		return nil, err
	}
	e.fw = fw
	facs, err := studiedFactories(shape.requests, cfg.corpusSeed)
	if err == nil {
		err = fw.LearnWorkloadSources(facs)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	e.setup = time.Since(t0)
	return e, nil
}

// untracedTune is one end-to-end operation: a fresh set-up, then one
// timed TuneContext call. After every tuner iteration, when no
// simulation runs, it times one calibration pass and leaves it out of
// the tune's time.
func untracedTune(ctx context.Context, cfg runConfig, shape tuneShape, spec autoblox.ObjectiveSpec, cal *calibrator) (out tuneOutcome, err error) {
	e, err := openTune(ctx, cfg, shape, spec)
	if err != nil {
		return out, err
	}
	defer e.close()
	out.setup = e.setup
	var paused time.Duration
	e.fw.SetProgress(func(int, float64) { paused += cal.sample() })
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	out.res, err = e.fw.TuneContext(ctx, tuneTarget)
	out.wall = time.Since(t1) - paused
	if err != nil {
		return out, err
	}
	out.alloc = allocSince(&m0)
	out.sims = e.reg.Counter(core.MetricSimRuns).Value() + e.reg.Counter(core.MetricRemoteResults).Value()
	return out, nil
}

// timingBackend delegates every Measure to a fleet backend and records
// one span per call under the phase span currently running.
type timingBackend struct {
	inner  core.Backend
	rec    *recorder
	op     int
	parent atomic.Int64
}

func (b *timingBackend) Measure(ctx context.Context, job core.Job) (autodb.Perf, error) {
	t0 := time.Now()
	perf, err := b.inner.Measure(ctx, job)
	b.rec.add(b.op, int(b.parent.Load()), "dist.measure", t0, time.Now())
	return perf, err
}

func (b *timingBackend) Stats() core.BackendStats { return b.inner.Stats() }

// tracedTune drives the same core calls, in the same order, as
// Framework.LearnWorkloadSources + TuneContext on a fresh Framework,
// recording a span around each. A fresh AutoDB holds no stored order or
// configuration, so its lookups are skipped.
func tracedTune(ctx context.Context, cfg runConfig, shape tuneShape, spec autoblox.ObjectiveSpec, op int, rec *recorder) (out tuneOutcome, layer map[string]float64, err error) {
	layer = map[string]float64{}
	reg := obs.NewRegistry()
	var tb *timingBackend
	fleetReg := obs.NewRegistry()
	if shape.fleet {
		fl, err := startFleet(ctx, shape, spec, cfg.corpusSeed, fleetReg)
		if err != nil {
			return out, nil, err
		}
		defer fl.Close()
		tb = &timingBackend{inner: fl.Backend(), rec: rec, op: op}
	}
	facs, err := studiedFactories(shape.requests, cfg.corpusSeed)
	if err != nil {
		return out, nil, err
	}
	root := rec.begin(op, 0, "op."+cfg.workload)
	defer rec.end(root)

	// Layer probes, outside the timed tune.
	var gen []float64
	for i := 0; i < 3; i++ {
		id := rec.begin(op, root, "workload.gen")
		src, err := workload.NewSource(workload.Category(tuneTarget), workload.Options{Requests: shape.requests, Seed: cfg.corpusSeed})
		if err != nil {
			return out, nil, err
		}
		n := 0
		for _, ok := src.Next(); ok; _, ok = src.Next() {
			n++
		}
		rec.end(id)
		gen = append(gen, float64(rec.get(id).dur().Nanoseconds())/float64(n))
	}
	layer["workload.gen_ns_per_req"] = median(gen)
	id := rec.begin(op, root, "trace.features")
	for _, f := range facs {
		if _, err := trace.FeatureMatrixSource(f(), trace.DefaultWindowSize); err != nil {
			return out, nil, err
		}
	}
	rec.end(id)
	layer["trace.features_s"] = rec.get(id).dur().Seconds()

	// Setup: Framework.LearnWorkloadSources.
	srcs := make([]trace.Source, len(facs))
	for i, f := range facs {
		srcs[i] = f()
	}
	id = rec.begin(op, root, "clusterer.fit")
	_, err = core.TrainClustererSources(srcs, core.ClustererConfig{Seed: cfg.corpusSeed, AutoAdjustThreshold: true})
	rec.end(id)
	if err != nil {
		return out, nil, err
	}
	layer["clusterer.fit_s"] = rec.get(id).dur().Seconds()
	groups := make(map[string][]trace.SourceFactory, len(facs))
	for i, f := range facs {
		groups[srcs[i].Name()] = []trace.SourceFactory{f}
	}
	space, refCfg := newSpace(spec)

	// The tune: Framework.TuneContext.
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tuneID := rec.begin(op, root, "tune")
	phase := func(name string) int {
		id := rec.begin(op, tuneID, name)
		if tb != nil {
			tb.parent.Store(int64(id))
		}
		return id
	}
	id = phase("validator.new")
	v := core.NewValidatorSources(space, groups)
	v.Parallel = tuneParallel
	v.Obs = reg
	if tb != nil {
		v.Backend = tb
	}
	rec.end(id)
	fresh := func() int64 {
		st := v.Stats()
		return st.SimRuns + st.RemoteResults
	}

	id = phase("grader.reference")
	g, err := core.NewGrader(ctx, v, refCfg, core.DefaultAlpha, core.DefaultBeta)
	rec.end(id)
	if err != nil {
		return out, nil, err
	}
	layer["grader.reference_s"] = rec.get(id).dur().Seconds()
	layer["grader.sims"] = float64(fresh())

	opts := core.TunerOptions{
		Alpha: core.DefaultAlpha, Beta: core.DefaultBeta, Seed: cfg.corpusSeed,
		MaxIterations: shape.iters,
	}
	before := fresh()
	id = phase("prune.fine")
	// Framework.TuneContext tunes without an order when pruning fails.
	if fine, err := core.FinePrune(ctx, v, g, tuneTarget, refCfg, nil, core.PruneOptions{Seed: cfg.corpusSeed}); err == nil && len(fine.Order) > 0 {
		opts.UseTuningOrder, opts.Order = true, fine.Order
	}
	rec.end(id)
	layer["prune.fine_s"] = rec.get(id).dur().Seconds()
	layer["prune.sims"] = float64(fresh() - before)

	var searchID int
	var searchStart, lastIter time.Time
	var gaps []float64
	opts.OnIteration = func(int, float64) {
		now := time.Now()
		from := lastIter
		if from.IsZero() {
			from = searchStart
		} else {
			gaps = append(gaps, millis(now.Sub(lastIter)))
		}
		rec.add(op, searchID, "tuner.iteration", from, now)
		lastIter = now
	}
	id = phase("tuner.new")
	t, err := core.NewTuner(space, v, g, opts)
	rec.end(id)
	if err != nil {
		return out, nil, err
	}
	before = fresh()
	searchID = phase("tuner.search")
	searchStart = time.Now()
	out.res, err = t.Tune(ctx, tuneTarget, []ssdconf.Config{refCfg})
	rec.end(searchID)
	rec.end(tuneID)
	if err != nil {
		return out, nil, err
	}
	out.alloc = allocSince(&m0)
	out.wall = rec.get(tuneID).dur()
	out.sims = fresh()

	spans := rec.snapshot()
	search := rec.get(searchID)
	layer["tuner.search_s"] = search.dur().Seconds()
	layer["tuner.sims"] = float64(out.sims - before)
	layer["tuner.iterations"] = float64(out.res.Iterations)
	layer["tuner.iter_p50_ms"] = quantile(gaps, 0.5)
	layer["tuner.iter_max_ms"] = maxOf(gaps)
	layer["tuner.pruned_validations"] = float64(out.res.PrunedValidations)
	layer["tuner.front_size"] = float64(len(out.res.Front))
	layer["tuner.front_hypervolume"] = out.res.Hypervolume

	st := v.Stats()
	calls := st.SimRuns + st.CacheHits + st.CoalescedWaits + st.RemoteResults
	layer["validator.cache_hits"] = float64(st.CacheHits)
	layer["validator.coalesced"] = float64(st.CoalescedWaits)
	layer["validator.hit_ratio"] = float64(st.CacheHits) / float64(max(calls, 1))
	busy := st.SimBusy
	if tb == nil {
		layer["validator.sim_busy_s"] = st.SimBusy.Seconds()
		layer["validator.queue_wait_s"] = st.Backend.QueueWait.Seconds()
		layer["validator.pool_util"] = st.Utilization(tuneParallel)
	} else {
		// Worker-reported job time also counts a leased job's wait for
		// its worker's simulation slot; the workers' own registry holds
		// the time spent inside the simulator.
		busy = time.Duration(fleetReg.Histogram(core.MetricSimTime).Sum())
		measures := children(spans, search, "dist.measure")
		var ms []float64
		for _, sp := range spans {
			if sp.Op == op && sp.Name == "dist.measure" {
				ms = append(ms, millis(sp.dur()))
			}
		}
		jobs := st.Backend.Jobs
		layer["tuner.self_s"] = selfTime(search, measures).Seconds()
		layer["dist.jobs"] = float64(jobs)
		layer["dist.measure_p50_ms"] = quantile(ms, 0.5)
		layer["dist.measure_p90_ms"] = quantile(ms, 0.9)
		layer["dist.overhead_ms_per_job"] = mean(ms) - millis(st.Backend.SimBusy)/float64(max(jobs, 1))
		layer["dist.queue_wait_s"] = st.Backend.QueueWait.Seconds()
		layer["dist.leases_expired"] = float64(st.Backend.LeasesExpired)
	}
	layer["ssd.ns_per_req"] = float64(busy.Nanoseconds()) / float64(max(out.sims, 1)*2*int64(shape.requests))
	return out, layer, nil
}

// regrade grades cfg from outside the tuner: a fresh validator and
// grader over the same corpus measure it on every cluster.
func regrade(ctx context.Context, cfg runConfig, shape tuneShape, spec autoblox.ObjectiveSpec, best ssdconf.Config) (float64, error) {
	facs, err := studiedFactories(shape.requests, cfg.corpusSeed)
	if err != nil {
		return 0, err
	}
	groups := make(map[string][]trace.SourceFactory, len(facs))
	for _, f := range facs {
		groups[f().Name()] = []trace.SourceFactory{f}
	}
	space, refCfg := newSpace(spec)
	v := core.NewValidatorSources(space, groups)
	v.Parallel = tuneParallel
	g, err := core.NewGrader(ctx, v, refCfg, core.DefaultAlpha, core.DefaultBeta)
	if err != nil {
		return 0, err
	}
	if err := v.MeasureBatch(ctx, []ssdconf.Config{best}, v.Clusters()); err != nil {
		return 0, err
	}
	ps, err := v.MeasureCluster(ctx, best, tuneTarget)
	if err != nil {
		return 0, err
	}
	target := g.ClusterPerformance(tuneTarget, ps)
	nonTarget := map[string]float64{}
	for _, cl := range v.NonTargetClusters(tuneTarget) {
		ps, err := v.MeasureCluster(ctx, best, cl)
		if err != nil {
			return 0, err
		}
		nonTarget[cl] = g.ClusterPerformance(cl, ps)
	}
	return g.Grade(target, nonTarget, len(v.Workloads)), nil
}

// gradeTolerance is the relative error within which two grades, or two
// hypervolumes, computed from the same simulations count as equal.
// core.Grader.Grade sums the non-target clusters in map iteration order,
// so identical measurements can grade differently in the last bits; a
// different search path moves them by far more.
const gradeTolerance = 1e-9

func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= gradeTolerance*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-12)
}

// sameTune reports how two tunes of the same inputs differ ("" when
// their deterministic outputs agree), and whether their grade or
// hypervolume differ in the last bits.
func sameTune(a, b tuneOutcome) (diff string, bitsDiffer bool) {
	bitsDiffer = a.res.BestGrade != b.res.BestGrade || a.res.Hypervolume != b.res.Hypervolume
	switch {
	case !closeRel(a.res.BestGrade, b.res.BestGrade):
		diff = fmt.Sprintf("best_grade %.12g vs %.12g", a.res.BestGrade, b.res.BestGrade)
	case a.sims != b.sims:
		diff = fmt.Sprintf("sims_per_tune %d vs %d", a.sims, b.sims)
	case !closeRel(a.res.Hypervolume, b.res.Hypervolume):
		diff = fmt.Sprintf("front_hypervolume %.12g vs %.12g", a.res.Hypervolume, b.res.Hypervolume)
	case a.res.Best.Key() != b.res.Best.Key():
		diff = "best configurations differ"
	}
	return diff, bitsDiffer
}

// checkTune runs the output checks on one untraced tune and reports
// whether all passed. The external re-grade runs on the first operation
// only: every later one must match the first exactly.
func checkTune(ctx context.Context, rep *report, cfg runConfig, shape tuneShape, spec autoblox.ObjectiveSpec, u tuneOutcome, first *tuneOutcome) bool {
	before := len(rep.failures)
	res := u.res
	space, _ := newSpace(spec)
	if err := space.CheckConstraints(res.Best); err != nil {
		rep.fail("best configuration violates constraints: %v", err)
	}
	if !spec.Scalar() {
		if len(res.Front) == 0 || res.Hypervolume <= 0 {
			rep.fail("empty Pareto front (size %d, hypervolume %g)", len(res.Front), res.Hypervolume)
		}
		if i, j, ok := dominatedPair(res.Front); ok {
			rep.fail("front point %d dominates front point %d", i, j)
		}
	}
	if first == nil {
		g, err := regrade(ctx, cfg, shape, spec, res.Best)
		switch {
		case err != nil:
			rep.fail("re-grade: %v", err)
		case !closeRel(g, res.BestGrade):
			rep.fail("re-graded best config %.12g, tuner reported %.12g", g, res.BestGrade)
		default:
			rep.printf("%-28s ok: external re-grade %.12g matches best_grade", "check.regrade", g)
		}
	} else {
		d, bits := sameTune(*first, u)
		if d != "" {
			rep.fail("repeat of the same inputs differs: %s", d)
		}
		rep.repeats++
		if bits {
			rep.bitDiffs++
		}
	}
	return len(rep.failures) == before
}

// runTune runs the tune-scalar or tune-pareto workload.
func runTune(ctx context.Context, cfg runConfig) (*report, error) {
	shape := shapeFor(cfg)
	spec, err := autoblox.ParseObjectives(shape.objectives)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rec := newRecorder()
	var first *tuneOutcome
	var walls, twalls, setups samples
	var reqps, normReqps, allocs []float64
	layers := map[string][]float64{}
	cal := newCalibrator()
	cal.block()
	// Set-up is short next to a tune; repeat it for a steady median. Every
	// operation below adds its own set-up as one more sample.
	for i := 0; i < 5; i++ {
		e, err := openTune(ctx, cfg, shape, spec)
		if err != nil {
			return nil, err
		}
		setups.add(e.setup.Seconds())
		e.close()
	}
	cal.block()
	setups.settle(cal.factor(0))
	opErr := closedLoop(cfg.budget, 1, func(i int) error {
		before := cal.mark()
		defer func() {
			cal.block()
			f := cal.factor(before)
			walls.settle(f)
			setups.settle(f)
			twalls.settle(f)
		}()
		u, err := untracedTune(ctx, cfg, shape, spec, cal)
		rep.attempted++
		if err != nil {
			rep.failed++
			return err
		}
		if !checkTune(ctx, rep, cfg, shape, spec, u, first) {
			rep.failed++
		}
		if first == nil {
			first = &u
		}
		records := float64(u.sims) * float64(shape.requests)
		walls.add(u.wall.Seconds())
		setups.add(u.setup.Seconds())
		reqps = append(reqps, records/u.wall.Seconds())
		allocs = append(allocs, float64(u.alloc)/records)
		if !cfg.traced {
			return nil
		}
		tr, layer, err := tracedTune(ctx, cfg, shape, spec, i+1, rec)
		rep.attempted++
		if err != nil {
			rep.failed++
			return err
		}
		d, bits := sameTune(u, tr)
		if d != "" {
			rep.fail("traced run differs from untraced: %s", d)
			rep.failed++
		}
		rep.repeats++
		if bits {
			rep.bitDiffs++
		}
		twalls.add(tr.wall.Seconds())
		for k, v := range layer {
			layers[k] = append(layers[k], v)
		}
		return nil
	})
	if opErr != nil {
		rep.fail("operation error: %v", opErr)
	}
	if first == nil {
		return rep, nil
	}
	records := float64(first.sims) * float64(shape.requests)
	for _, w := range walls.ref {
		normReqps = append(normReqps, records/w)
	}

	rep.printf("workload %s: target %s, %d records/trace, %d iterations, closed loop with 1 caller, %d simulations in flight at most",
		cfg.workload, tuneTarget, shape.requests, shape.iters, tuneParallel)
	rep.timing("tune_wall_s", "s", walls.host)
	rep.timing("setup_s (host s)", "s", setups.host)
	rep.timing("req_per_s", "records/s", reqps)
	rep.reference(cal)
	rep.timing("op_norm_s", "s", walls.ref)
	rep.timing("setup_s", "s", setups.ref)
	rep.timing("req_per_norm_s", "records/s", normReqps)
	rep.printf("%-28s %d count", "sims_per_tune", first.sims)
	rep.printf("%-28s %.12g grade", "best_grade", first.res.BestGrade)
	if !spec.Scalar() {
		rep.printf("%-28s %.12g ratio (front size %d)", "front_hypervolume", first.res.Hypervolume, len(first.res.Front))
	}
	rep.timing("alloc_b_per_req", "B/record", allocs)
	rep.printf("%-28s %d of %d repeated tunes differ from the compared tune in the last bits of best_grade or front_hypervolume (within %g)",
		"check.repeat_bits", rep.bitDiffs, rep.repeats, gradeTolerance)
	rep.e2e["op_norm_s"] = median(walls.ref)
	rep.e2e["setup_s"] = median(setups.ref)
	rep.e2e["req_per_norm_s"] = median(normReqps)
	rep.e2e["alloc_b_per_req"] = median(allocs)
	rep.e2e["sims_per_op"] = float64(first.sims)
	rep.e2e["best_grade"] = first.res.BestGrade

	if cfg.traced && len(twalls.host) > 0 {
		rep.finishTraced("tune_wall_s", layers, walls, twalls, rec, cal.scale())
	}
	return rep, nil
}
