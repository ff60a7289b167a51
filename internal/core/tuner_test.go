package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

func TestCoarsePrune(t *testing.T) {
	_, v, g, ref := testEnv(t, []workload.Category{workload.Database}, 2500)
	res, err := CoarsePrune(context.Background(), v, g, string(workload.Database), ref, PruneOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweeps) != 42 {
		t.Fatalf("swept %d parameters, want 42 (Fig. 4's 35 numeric + 3 host-interface numerics + 4 tunable categoricals)", len(res.Sweeps))
	}
	// Tunable categoricals are swept across their whole domain.
	for name, n := range map[string]int{"PlaneAllocationScheme": 16, "CachePolicy": 4, "GCPolicy": 3, "HostInterfaceModel": 3} {
		if got := len(res.Sweeps[name]); got != n {
			t.Fatalf("%s sweep has %d points, want %d (full domain)", name, got, n)
		}
	}
	// Known-inert parameters must be found insensitive.
	found := map[string]bool{}
	for _, n := range res.Insensitive {
		found[n] = true
	}
	for _, want := range []string{"PageMetadataCapacity", "ReadRetryLimit", "BadBlockRatio"} {
		if !found[want] {
			t.Fatalf("%s should be insensitive; insensitive set = %v", want, res.Insensitive)
		}
	}
	if len(res.Insensitive) < 5 || len(res.Insensitive) > 30 {
		t.Fatalf("insensitive count %d implausible (paper finds ~12)", len(res.Insensitive))
	}
	// Sweep points are well-formed.
	for name, sweep := range res.Sweeps {
		if len(sweep) == 0 {
			t.Fatalf("empty sweep for %s", name)
		}
		if sweep[0].Performance != 0 {
			t.Fatalf("%s: first point (baseline) performance = %g, want 0", name, sweep[0].Performance)
		}
	}
	if _, err := CoarsePrune(context.Background(), v, g, "nope", ref, PruneOptions{}); err == nil {
		t.Fatal("unknown target should fail")
	}
}

func TestFinePrune(t *testing.T) {
	_, v, g, ref := testEnv(t, []workload.Category{workload.KVStore}, 2500)
	coarse, err := CoarsePrune(context.Background(), v, g, string(workload.KVStore), ref, PruneOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := FinePrune(context.Background(), v, g, string(workload.KVStore), ref, coarse.Insensitive, PruneOptions{Seed: 2, Samples: 48})
	if err != nil {
		t.Fatal(err)
	}
	if len(fine.Order) == 0 {
		t.Fatal("empty tuning order")
	}
	if len(fine.Coefficients) == 0 {
		t.Fatal("no coefficients")
	}
	// Tunable categoricals that survive coarse pruning participate in
	// the regression (one-hot) and receive a coefficient like every
	// numeric axis; coarse-insensitive ones are dropped like any other.
	coarseDropped := map[string]bool{}
	for _, n := range coarse.Insensitive {
		coarseDropped[n] = true
	}
	anyCat := false
	for _, name := range []string{"PlaneAllocationScheme", "CachePolicy", "GCPolicy"} {
		_, ok := fine.Coefficients[name]
		if ok == coarseDropped[name] {
			t.Fatalf("%s: in coefficients=%v but coarse-insensitive=%v", name, ok, coarseDropped[name])
		}
		anyCat = anyCat || ok
	}
	if !anyCat {
		t.Fatal("no categorical axis reached the ridge fit on this workload")
	}
	// Order is sorted by |coefficient| descending.
	prev := 1e18
	for _, name := range fine.Order {
		c := fine.Coefficients[name]
		if c < 0 {
			c = -c
		}
		if c > prev+1e-12 {
			t.Fatalf("order not sorted by |coef|: %v", fine.Order)
		}
		prev = c
	}
	if _, err := FinePrune(context.Background(), v, g, "nope", ref, nil, PruneOptions{}); err == nil {
		t.Fatal("unknown target should fail")
	}
}

func smallTunerEnv(t *testing.T) (*ssdconf.Space, *Validator, *Grader, ssdconf.Config) {
	return testEnv(t, []workload.Category{workload.Database, workload.WebSearch, workload.CloudStorage}, 2500)
}

func TestTunerImprovesOverReference(t *testing.T) {
	space, v, g, ref := smallTunerEnv(t)
	tuner, err := NewTuner(space, v, g, TunerOptions{Seed: 7, MaxIterations: 10, SGDSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tuner.Tune(context.Background(), string(workload.Database), []ssdconf.Config{ref})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestGrade < 0 {
		t.Fatalf("best grade %g worse than the reference's 0", res.BestGrade)
	}
	if res.Iterations == 0 || len(res.Trajectory) != res.Iterations {
		t.Fatalf("iterations=%d trajectory=%d", res.Iterations, len(res.Trajectory))
	}
	// Trajectory is the running best → non-decreasing.
	for i := 1; i < len(res.Trajectory); i++ {
		if res.Trajectory[i] < res.Trajectory[i-1]-1e-12 {
			t.Fatalf("trajectory decreased at %d: %v", i, res.Trajectory)
		}
	}
	if err := space.CheckConstraints(res.Best); err != nil {
		t.Fatalf("best config violates constraints: %v", err)
	}
	if len(res.BestPerf) != 3 {
		t.Fatalf("BestPerf covers %d clusters, want 3", len(res.BestPerf))
	}
	if res.SimRuns <= 0 {
		t.Fatal("no simulator runs recorded")
	}
}

func TestTunerErrors(t *testing.T) {
	space, v, g, ref := smallTunerEnv(t)
	tuner, _ := NewTuner(space, v, g, TunerOptions{Seed: 1, MaxIterations: 2})
	if _, err := tuner.Tune(context.Background(), "nope", []ssdconf.Config{ref}); err == nil {
		t.Fatal("unknown target should fail")
	}
	if _, err := tuner.Tune(context.Background(), string(workload.Database), nil); err == nil {
		t.Fatal("no initial configs should fail")
	}
	if _, err := NewTuner(space, v, g, TunerOptions{UseTuningOrder: true, Order: []string{"Bogus"}}); err == nil {
		t.Fatal("bogus order name should fail")
	}
}

func TestTunerDeterminism(t *testing.T) {
	space, v, g, ref := smallTunerEnv(t)
	run := func() *TuneResult {
		tuner, _ := NewTuner(space, v, g, TunerOptions{Seed: 99, MaxIterations: 6, SGDSteps: 3})
		res, err := tuner.Tune(context.Background(), string(workload.WebSearch), []ssdconf.Config{ref})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.BestGrade != b.BestGrade || !ssdconf.Equal(a.Best, b.Best) {
		t.Fatal("tuning not deterministic under a fixed seed")
	}
}

func TestTunerWithTuningOrder(t *testing.T) {
	space, v, g, ref := smallTunerEnv(t)
	tuner, err := NewTuner(space, v, g, TunerOptions{
		Seed: 3, MaxIterations: 8, SGDSteps: 4,
		UseTuningOrder: true,
		Order:          []string{"FlashChannelCount", "DataCacheSize", "QueueDepth", "ChannelTransferRate"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tuner.Tune(context.Background(), string(workload.CloudStorage), []ssdconf.Config{ref})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestGrade < 0 {
		t.Fatalf("ordered tuning regressed below reference: %g", res.BestGrade)
	}
}

// The two tests below pin synthetic environments where one of this
// repo's newly registered policies is the measurable optimum along its
// axis, and assert the tuner discovers it end-to-end (registry →
// ssdconf dimension → NeighborsOf → SGD walk → Best config).

func TestTunerSelectsCostBenefitGC(t *testing.T) {
	// A deliberately tiny-capacity constraint keeps absolute over-
	// provisioning small, so GC runs within a short trace; on the
	// RadiusAuth cluster the wear-aware cost-benefit victim beats both
	// greedy and fifo.
	cons := ssdconf.DefaultConstraints()
	cons.CapacityBytes = 16 << 20
	space := ssdconf.NewSpace(cons)
	tiny := ssd.DefaultParams()
	tiny.Channels, tiny.ChipsPerChannel, tiny.DiesPerChip, tiny.PlanesPerDie = 1, 1, 1, 1
	tiny.BlocksPerPlane, tiny.PagesPerBlock, tiny.PageSizeBytes = 128, 64, 2048
	base := space.FromDevice(tiny)
	if err := space.CheckConstraints(base); err != nil {
		t.Fatalf("base violates constraints: %v", err)
	}
	target := string(workload.RadiusAuth)
	v := NewValidator(space, map[string]*trace.Trace{
		target: workload.MustGenerate(workload.RadiusAuth, workload.Options{Requests: 2500, Seed: 21}),
	})
	g, err := NewGrader(context.Background(), v, base, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := NewTuner(space, v, g, TunerOptions{
		Seed: 5, MaxIterations: 6, SGDSteps: 3,
		UseTuningOrder: true, Order: []string{"GCPolicy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tuner.Tune(context.Background(), target, []ssdconf.Config{base})
	if err != nil {
		t.Fatal(err)
	}
	if d := space.ToDevice(res.Best); d.GCPolicy != ssd.GCCostBenefit {
		t.Fatalf("tuner selected gc policy %s (grade %g), want costbenefit", d.GCPolicy, res.BestGrade)
	}
	if res.BestGrade <= 0 {
		t.Fatalf("selecting costbenefit should improve on the greedy baseline, grade = %g", res.BestGrade)
	}
}

func TestTunerSelectsClockCache(t *testing.T) {
	// On the LiveMaps cluster with the commodity reference device the
	// CLOCK replacement policy strictly beats LRU, FIFO and CFLRU.
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	base := space.FromDevice(ssd.Intel750())
	target := string(workload.LiveMaps)
	v := NewValidator(space, map[string]*trace.Trace{
		target: workload.MustGenerate(workload.LiveMaps, workload.Options{Requests: 2500, Seed: 21}),
	})
	g, err := NewGrader(context.Background(), v, base, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := NewTuner(space, v, g, TunerOptions{
		Seed: 5, MaxIterations: 6, SGDSteps: 3,
		UseTuningOrder: true, Order: []string{"CachePolicy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tuner.Tune(context.Background(), target, []ssdconf.Config{base})
	if err != nil {
		t.Fatal(err)
	}
	if d := space.ToDevice(res.Best); d.CachePolicy != ssd.CacheCLOCK {
		t.Fatalf("tuner selected cache policy %s (grade %g), want CLOCK", d.CachePolicy, res.BestGrade)
	}
	if res.BestGrade <= 0 {
		t.Fatalf("selecting CLOCK should improve on the LRU baseline, grade = %g", res.BestGrade)
	}
}

// hotColdTenants builds one trace of three tenants over disjoint LBA
// regions of a small device: a hot tenant rewriting a small region, a
// cold tenant streaming sequentially over a large one, and a reader
// scanning the whole space (whose flash reads observe GC pauses). Each
// request carries its tenant's stream tag (1 hot, 2 cold, 3 scan) — the
// multi-tenant shape where per-stream write lanes pay off: hot blocks
// die together instead of dragging cold survivors through every
// collection.
func hotColdTenants(n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	const spp = 4 // 2048-byte pages = 4 sectors
	tr := &trace.Trace{Name: "multi-tenant", Requests: make([]trace.Request, 0, n)}
	coldLP := int64(750)
	for i := 0; i < n; i++ {
		arrival := time.Duration(i) * 150 * time.Nanosecond
		switch draw := rng.Float64(); {
		case draw < 0.55:
			tr.Requests = append(tr.Requests, trace.Request{Arrival: arrival,
				LBA: uint64(rng.Intn(750)) * spp, Sectors: spp, Op: trace.Write, Stream: 1})
		case draw < 0.85:
			tr.Requests = append(tr.Requests, trace.Request{Arrival: arrival,
				LBA: uint64(coldLP) * spp, Sectors: spp, Op: trace.Write, Stream: 2})
			coldLP++
			if coldLP >= 7000 {
				coldLP = 750
			}
		default:
			tr.Requests = append(tr.Requests, trace.Request{Arrival: arrival,
				LBA: uint64(rng.Intn(7000)) * spp, Sectors: spp, Op: trace.Read, Stream: 3})
		}
	}
	return tr
}

func TestTunerSelectsMultiStream(t *testing.T) {
	// Small capacity + copyback off keeps GC on the shared channel, so
	// the write-amplification gap between mixed-lifetime blocks
	// (conventional) and per-stream lanes (multi-stream) reaches the
	// latency the grader sees.
	cons := ssdconf.DefaultConstraints()
	cons.CapacityBytes = 16 << 20
	space := ssdconf.NewSpace(cons)
	tiny := ssd.DefaultParams()
	tiny.Channels, tiny.ChipsPerChannel, tiny.DiesPerChip, tiny.PlanesPerDie = 1, 1, 1, 1
	tiny.BlocksPerPlane, tiny.PagesPerBlock, tiny.PageSizeBytes = 128, 64, 2048
	tiny.CopybackEnabled = false
	base := space.FromDevice(tiny)
	if err := space.CheckConstraints(base); err != nil {
		t.Fatalf("base violates constraints: %v", err)
	}
	target := "MultiTenant"
	v := NewValidator(space, map[string]*trace.Trace{target: hotColdTenants(24000, 1)})
	g, err := NewGrader(context.Background(), v, base, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := NewTuner(space, v, g, TunerOptions{
		Seed: 5, MaxIterations: 6, SGDSteps: 3,
		UseTuningOrder: true, Order: []string{"HostInterfaceModel"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tuner.Tune(context.Background(), target, []ssdconf.Config{base})
	if err != nil {
		t.Fatal(err)
	}
	if d := space.ToDevice(res.Best); d.HostIfcModel != ssd.IfcMultiStream {
		t.Fatalf("tuner selected interface %s (grade %g), want multistream", d.HostIfcModel, res.BestGrade)
	}
	if res.BestGrade <= 0 {
		t.Fatalf("stream isolation should improve on the conventional baseline, grade = %g", res.BestGrade)
	}
}

// seqScanTrace is a sequential write stream with a uniform random-read
// scan whose mapping footprint exceeds the conventional CMT, so every
// scan read pays a flash mapping lookup. The zone-granular mapping of
// the ZNS model covers the same footprint with three orders of
// magnitude fewer entries.
func seqScanTrace(n int, seed int64, logicalBytes int64, pageBytes int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	spp := uint64(pageBytes / 512)
	pages := uint64(logicalBytes) / uint64(pageBytes)
	reqs := make([]trace.Request, 0, n)
	w := uint64(0)
	for i := 0; i < n; i++ {
		r := trace.Request{Arrival: time.Duration(i) * time.Microsecond,
			Sectors: uint32(spp), Op: trace.Write, LBA: w * spp}
		if i%3 == 0 {
			r.Op = trace.Read
			r.LBA = (rng.Uint64() % pages) * spp
		} else {
			w = (w + 1) % pages
		}
		reqs = append(reqs, r)
	}
	return &trace.Trace{Name: "seq-scan", Requests: reqs}
}

func TestTunerSelectsZNS(t *testing.T) {
	// A large device at the minimum grid CMT: the simulator's capacity
	// folding leaves a per-page CMT covering only a sliver of the
	// logical space, while the ZNS zone-granular table covers all of it.
	cons := ssdconf.DefaultConstraints()
	cons.CapacityBytes = 4 << 40
	space := ssdconf.NewSpace(cons)
	dev := ssd.DefaultParams()
	dev.BlocksPerPlane, dev.PagesPerBlock = 2048, 1024
	dev.CMTBytes = 32 << 20
	dev.CMTEntryBytes = 16
	dev.DataCacheBytes = 64 << 20
	dev.ZoneSizeMB = 64
	base := space.FromDevice(dev)
	if err := space.CheckConstraints(base); err != nil {
		t.Fatalf("base violates constraints: %v", err)
	}
	logical := int64(float64(dev.CapacityBytes()) * (1 - dev.OverprovisionRatio))
	target := "SeqScan"
	v := NewValidator(space, map[string]*trace.Trace{
		target: seqScanTrace(45000, 4, logical, dev.PageSizeBytes),
	})
	g, err := NewGrader(context.Background(), v, base, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := NewTuner(space, v, g, TunerOptions{
		Seed: 5, MaxIterations: 6, SGDSteps: 3,
		UseTuningOrder: true, Order: []string{"HostInterfaceModel"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tuner.Tune(context.Background(), target, []ssdconf.Config{base})
	if err != nil {
		t.Fatal(err)
	}
	if d := space.ToDevice(res.Best); d.HostIfcModel != ssd.IfcZNS {
		t.Fatalf("tuner selected interface %s (grade %g), want zns", d.HostIfcModel, res.BestGrade)
	}
	if res.BestGrade <= 0 {
		t.Fatalf("zone-granular mapping should improve on the conventional baseline, grade = %g", res.BestGrade)
	}
}

func TestPowerBudgetRejection(t *testing.T) {
	cons := ssdconf.DefaultConstraints()
	cons.PowerBudgetWatts = 0.0001 // impossible budget: everything rejected
	space := ssdconf.NewSpace(cons)
	tr := workload.MustGenerate(workload.Database, workload.Options{Requests: 1500, Seed: 4})
	v := NewValidator(space, map[string]*trace.Trace{"Database": tr})
	ref := space.FromDevice(ssd.Intel750())
	g, err := NewGrader(context.Background(), v, ref, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	tuner, _ := NewTuner(space, v, g, TunerOptions{Seed: 1, MaxIterations: 2})
	if _, err := tuner.Tune(context.Background(), "Database", []ssdconf.Config{ref}); err == nil {
		t.Fatal("impossible power budget should reject every initial config")
	}

	// A generous budget accepts everything.
	cons.PowerBudgetWatts = 100
	space2 := ssdconf.NewSpace(cons)
	v2 := NewValidator(space2, map[string]*trace.Trace{"Database": tr})
	ref2 := space2.FromDevice(ssd.Intel750())
	g2, err := NewGrader(context.Background(), v2, ref2, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	tuner2, _ := NewTuner(space2, v2, g2, TunerOptions{Seed: 1, MaxIterations: 3, SGDSteps: 2})
	res, err := tuner2.Tune(context.Background(), "Database", []ssdconf.Config{ref2})
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectedByPower != 0 {
		t.Fatalf("generous budget rejected %d configs", res.RejectedByPower)
	}
}

func TestWhatIfGoal(t *testing.T) {
	if err := (WhatIfGoal{}).validate(); err == nil {
		t.Fatal("empty goal should fail validation")
	}
	if err := (WhatIfGoal{Target: "x"}).validate(); err == nil {
		t.Fatal("goal without a metric should fail")
	}
	if err := (WhatIfGoal{Target: "x", LatencyReduction: 2}).validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWhatIfModestGoal(t *testing.T) {
	cons := ssdconf.DefaultConstraints()
	space := ssdconf.NewWhatIfSpace(cons)
	tr := workload.MustGenerate(workload.WebSearch, workload.Options{Requests: 2500, Seed: 9})
	v := NewValidator(space, map[string]*trace.Trace{"WebSearch": tr})
	ref := space.FromDevice(ssd.Intel750())
	g, err := NewGrader(context.Background(), v, ref, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	res, err := WhatIf(context.Background(), space, v, g, WhatIfGoal{Target: "WebSearch", LatencyReduction: 1.05},
		[]ssdconf.Config{ref}, TunerOptions{Seed: 6, MaxIterations: 12, SGDSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencySpeedup <= 0 {
		t.Fatalf("latency speedup %g", res.LatencySpeedup)
	}
	if len(res.CriticalParams) != len(Table7Params) {
		t.Fatalf("critical params %d, want %d", len(res.CriticalParams), len(Table7Params))
	}
	if !res.Achieved && res.LatencySpeedup >= 1.05 {
		t.Fatal("Achieved flag inconsistent with speedup")
	}
}

func TestValidationPruningCountersAndAblation(t *testing.T) {
	space, v, g, ref := smallTunerEnv(t)
	with, _ := NewTuner(space, v, g, TunerOptions{Seed: 21, MaxIterations: 8, SGDSteps: 3})
	resWith, err := with.Tune(context.Background(), string(workload.CloudStorage), []ssdconf.Config{ref})
	if err != nil {
		t.Fatal(err)
	}
	without, _ := NewTuner(space, v, g, TunerOptions{Seed: 21, MaxIterations: 8, SGDSteps: 3,
		DisableValidationPruning: true})
	resWithout, err := without.Tune(context.Background(), string(workload.CloudStorage), []ssdconf.Config{ref})
	if err != nil {
		t.Fatal(err)
	}
	if resWithout.PrunedValidations != 0 {
		t.Fatalf("pruning disabled but %d prunes recorded", resWithout.PrunedValidations)
	}
	_ = resWith // counters may legitimately be zero on lucky seeds
}

func TestStopConditionHaltsEarly(t *testing.T) {
	space, v, g, ref := smallTunerEnv(t)
	tuner, _ := NewTuner(space, v, g, TunerOptions{
		Seed: 2, MaxIterations: 50, SGDSteps: 3,
		StopCondition: func(lat, tput float64) bool { return lat >= 1.0 }, // satisfied immediately
	})
	res, err := tuner.Tune(context.Background(), string(workload.Database), []ssdconf.Config{ref})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Fatalf("stop condition should halt in 1 iteration, ran %d", res.Iterations)
	}
	if !res.Converged {
		t.Fatal("stop-condition halt should mark Converged")
	}
}

// TestConvergedStopRule pins the §3.4 stop rule under the default
// options: the search converges once the best grade has stayed within
// ±1% of the window's first value for 8 iterations.
func TestConvergedStopRule(t *testing.T) {
	var opts TunerOptions
	opts.defaults()
	tu := &Tuner{Opts: opts}
	// flat returns n copies of v, then the extra values.
	flat := func(n int, v float64, extra ...float64) []float64 {
		traj := make([]float64, n, n+len(extra))
		for i := range traj {
			traj[i] = v
		}
		return append(traj, extra...)
	}
	// moved is nine values of 0.5 with the fifth scaled by f.
	moved := func(f float64) []float64 {
		traj := flat(9, 0.5)
		traj[4] *= f
		return traj
	}
	for _, tc := range []struct {
		name string
		traj []float64
		want bool
	}{
		{"eight values fill no window", flat(8, 0.5), false},
		{"nine flat values converge", flat(9, 0.5), true},
		{"0.9% move inside the window converges", moved(1.009), true},
		{"1.1% move inside the window does not", moved(1.011), false},
		{"1.1% drop at the window's end does not", flat(8, 0.5, 0.5*0.989), false},
		{"1.1% step out of the window's base does not", append([]float64{0.5 * 1.011}, flat(8, 0.5)...), false},
		{"moves before the window are forgotten", append([]float64{0.1}, flat(9, 0.5)...), true},
		{"zero base floors at 1e-9", flat(8, 0, 5e-12), true},
		{"zero base still bounds moves", flat(8, 0, 2e-11), false},
	} {
		if got := tu.converged(tc.traj); got != tc.want {
			t.Errorf("%s: converged(%v) = %v, want %v", tc.name, tc.traj, got, tc.want)
		}
	}
}

func TestWhatIfThroughputGoalUsesStress(t *testing.T) {
	// A throughput goal above the offered rate is reachable only through
	// the arrival-compression stress measurement.
	cons := ssdconf.DefaultConstraints()
	space := ssdconf.NewWhatIfSpace(cons)
	tr := workload.MustGenerate(workload.Recomm, workload.Options{Requests: 2500, Seed: 14})
	v := NewValidator(space, map[string]*trace.Trace{"Recomm": tr})
	ref := space.FromDevice(ssd.Intel750())
	g, err := NewGrader(context.Background(), v, ref, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	res, err := WhatIf(context.Background(), space, v, g, WhatIfGoal{Target: "Recomm", ThroughputGain: 1.1},
		[]ssdconf.Config{ref}, TunerOptions{Seed: 8, MaxIterations: 15, SGDSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputSpeedup <= 0 {
		t.Fatalf("bad throughput speedup %g", res.ThroughputSpeedup)
	}
}
