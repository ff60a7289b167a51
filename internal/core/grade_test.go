package core

import (
	"context"
	"math"
	"testing"

	"autoblox/internal/autodb"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// testEnv builds a small validator + grader over a few clusters.
func testEnv(t *testing.T, cats []workload.Category, requests int) (*ssdconf.Space, *Validator, *Grader, ssdconf.Config) {
	t.Helper()
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	ws := map[string]*trace.Trace{}
	for _, c := range cats {
		ws[string(c)] = workload.MustGenerate(c, workload.Options{Requests: requests, Seed: 21})
	}
	v := NewValidator(space, ws)
	ref := space.FromDevice(ssd.Intel750())
	g, err := NewGrader(context.Background(), v, ref, DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	return space, v, g, ref
}

func TestPerformanceFormula(t *testing.T) {
	g := &Grader{Alpha: 0.5}
	ref := autodb.Perf{LatencyNS: 200, ThroughputBps: 100}
	tgt := autodb.Perf{LatencyNS: 100, ThroughputBps: 200}
	// 0.5·ln(2) + 0.5·ln(2) = ln(2)
	if got := g.Performance(tgt, ref); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("Performance = %g, want ln2", got)
	}
	// Identical perf → 0.
	if got := g.Performance(ref, ref); got != 0 {
		t.Fatalf("self performance = %g", got)
	}
	// Alpha extremes isolate the two metrics.
	gLat := &Grader{Alpha: 0}
	if got := gLat.Performance(tgt, ref); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("alpha=0 should be pure latency: %g", got)
	}
	gTput := &Grader{Alpha: 1}
	slow := autodb.Perf{LatencyNS: 1000, ThroughputBps: 200}
	if got := gTput.Performance(slow, ref); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("alpha=1 should ignore latency: %g", got)
	}
}

func TestGradeFormula(t *testing.T) {
	g := &Grader{Beta: 0.1}
	nonTarget := map[string]float64{"a": 0.2, "b": 0.4}
	// (1-0.1)*1.0 + 0.1*(0.6/2) with NumClusters=3
	want := 0.9*1.0 + 0.1*0.3
	if got := g.Grade(1.0, nonTarget, 3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Grade = %g, want %g", got, want)
	}
	// Single cluster: grade is the target performance.
	if got := g.Grade(1.0, nil, 1); got != 1.0 {
		t.Fatalf("single-cluster grade = %g", got)
	}
	if got := g.TargetHalf(2.0); math.Abs(got-1.8) > 1e-12 {
		t.Fatalf("TargetHalf = %g", got)
	}
}

// TestGradeIsBitDeterministic grades one map of six non-target
// clusters, whose float sum depends on addition order, 1000 times: the
// grade must come out bit-identical, summed in sorted-key order.
func TestGradeIsBitDeterministic(t *testing.T) {
	g := &Grader{Beta: 0.5}
	nonTarget := map[string]float64{
		"Database": 1e16, "FIU": 0.1, "KVStore": -1e16,
		"LiveMaps": 0.7, "VDI": 3.3, "WebSearch": 1e-3,
	}
	// Sorted-key order: Database, FIU, KVStore, LiveMaps, VDI, WebSearch.
	sum := 1e16 + 0.1
	sum += -1e16
	sum += 0.7
	sum += 3.3
	sum += 1e-3
	want := 0.5*0.25 + 0.5*sum/6
	for i := 0; i < 1000; i++ {
		if got := g.Grade(0.25, nonTarget, 7); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("grade %d = %v, want %v bit for bit", i, got, want)
		}
	}
}

func TestSpeedups(t *testing.T) {
	ref := autodb.Perf{LatencyNS: 300, ThroughputBps: 100}
	tgt := autodb.Perf{LatencyNS: 100, ThroughputBps: 150}
	lat, tput := Speedups(tgt, ref)
	if lat != 3 || tput != 1.5 {
		t.Fatalf("Speedups = %g/%g", lat, tput)
	}
}

func TestValidatorCaching(t *testing.T) {
	_, v, _, ref := testEnv(t, []workload.Category{workload.Database}, 2500)
	runs := v.SimRuns()
	if _, err := v.MeasureCluster(context.Background(), ref, string(workload.Database)); err != nil {
		t.Fatal(err)
	}
	if v.SimRuns() != runs {
		t.Fatal("reference measurement should be cached by NewGrader")
	}
	if _, err := v.MeasureCluster(context.Background(), ref, "nope"); err == nil {
		t.Fatal("unknown cluster should error")
	}
}

func TestGraderReferenceIsZero(t *testing.T) {
	_, v, g, ref := testEnv(t, []workload.Category{workload.Database, workload.WebSearch}, 2500)
	for _, cl := range v.Clusters() {
		ps, err := v.MeasureCluster(context.Background(), ref, cl)
		if err != nil {
			t.Fatal(err)
		}
		if p := g.ClusterPerformance(cl, ps); p != 0 {
			t.Fatalf("reference performance on %s = %g, want 0", cl, p)
		}
	}
}

func TestClusterPerformanceIsGeometricMean(t *testing.T) {
	g := &Grader{Alpha: 0, Ref: map[string][]autodb.Perf{
		"x": {{LatencyNS: 100, ThroughputBps: 1}, {LatencyNS: 100, ThroughputBps: 1}},
	}}
	perfs := []autodb.Perf{
		{LatencyNS: 50, ThroughputBps: 1},  // 2× speedup
		{LatencyNS: 200, ThroughputBps: 1}, // 0.5× speedup
	}
	// Geometric mean of 2 and 0.5 is 1 → log-mean 0.
	if got := g.ClusterPerformance("x", perfs); math.Abs(got) > 1e-12 {
		t.Fatalf("ClusterPerformance = %g, want 0", got)
	}
}

func TestValidatorGroups(t *testing.T) {
	space := ssdconf.NewSpace(ssdconf.DefaultConstraints())
	a := workload.MustGenerate(workload.Database, workload.Options{Requests: 2000, Seed: 1})
	b := workload.MustGenerate(workload.Database, workload.Options{Requests: 2000, Seed: 2})
	v := NewValidatorSources(space, map[string][]trace.SourceFactory{"Database": {a.Factory(), b.Factory()}})
	ref := space.FromDevice(ssd.Intel750())
	ps, err := v.MeasureCluster(context.Background(), ref, "Database")
	if err != nil || len(ps) != 2 {
		t.Fatalf("MeasureCluster: %d %v", len(ps), err)
	}
}
