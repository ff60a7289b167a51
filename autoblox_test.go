package autoblox

import (
	"context"
	"path/filepath"
	"testing"

	"autoblox/internal/autodb"
	"autoblox/internal/workload"
)

func newFramework(t *testing.T, opts Options) *Framework {
	t.Helper()
	if opts.DBPath == "" {
		opts.DBPath = filepath.Join(t.TempDir(), "autoblox.db")
	}
	if opts.Tuner.MaxIterations == 0 {
		opts.Tuner.MaxIterations = 6
		opts.Tuner.SGDSteps = 3
	}
	fw, err := New(DefaultConstraints(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fw.Close() })
	return fw
}

func learn(t *testing.T, fw *Framework, cats []workload.Category, n int) {
	t.Helper()
	var traces []*Trace
	for _, c := range cats {
		traces = append(traces, workload.MustGenerate(c, workload.Options{Requests: n, Seed: 31}))
	}
	if err := fw.LearnWorkloads(traces); err != nil {
		t.Fatal(err)
	}
}

func TestRecommendRequiresLearning(t *testing.T) {
	fw := newFramework(t, Options{Seed: 1})
	tr := workload.MustGenerate(workload.Database, workload.Options{Requests: 3000, Seed: 2})
	if _, err := fw.Recommend(tr); err == nil {
		t.Fatal("Recommend before LearnWorkloads should fail")
	}
	if _, err := fw.Tune("Database"); err == nil {
		t.Fatal("Tune before LearnWorkloads should fail")
	}
}

func TestEndToEndRecommendAndCache(t *testing.T) {
	fw := newFramework(t, Options{Seed: 5})
	learn(t, fw, []workload.Category{workload.Database, workload.WebSearch, workload.CloudStorage}, 9000)

	if got := fw.Workloads(); len(got) != 3 {
		t.Fatalf("Workloads = %v", got)
	}

	probe := workload.MustGenerate(workload.Database, workload.Options{Requests: 6000, Seed: 77})
	rec, err := fw.Recommend(probe)
	if err != nil {
		t.Fatal(err)
	}
	if rec.FromCache {
		t.Fatal("first recommendation cannot come from cache")
	}
	if rec.Assignment.Label != "Database" {
		t.Fatalf("probe assigned to %q", rec.Assignment.Label)
	}
	if rec.Tune == nil || rec.Grade < 0 {
		t.Fatalf("tuning result missing or regressed: %+v", rec)
	}
	if err := rec.Device.Validate(); err != nil {
		t.Fatalf("recommended device invalid: %v", err)
	}

	// Second request for the same workload type is served from AutoDB.
	probe2 := workload.MustGenerate(workload.Database, workload.Options{Requests: 6000, Seed: 78})
	rec2, err := fw.Recommend(probe2)
	if err != nil {
		t.Fatal(err)
	}
	if !rec2.FromCache {
		t.Fatal("second recommendation should be cached")
	}
	if rec2.Grade != rec.Grade {
		t.Fatalf("cached grade %g != learned grade %g", rec2.Grade, rec.Grade)
	}
}

func TestModelPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.log")
	fw, err := New(DefaultConstraints(), Options{DBPath: path, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	learn(t, fw, []workload.Category{workload.WebSearch, workload.CloudStorage}, 9000)
	fw.Close()

	fw2, err := New(DefaultConstraints(), Options{DBPath: path, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer fw2.Close()
	if fw2.Clusterer == nil {
		t.Fatal("clustering model not restored from AutoDB")
	}
	probe := workload.MustGenerate(workload.WebSearch, workload.Options{Requests: 6000, Seed: 12})
	a, err := fw2.Clusterer.Assign(probe)
	if err != nil {
		t.Fatal(err)
	}
	if a.Label != "WebSearch" {
		t.Fatalf("restored model assigned %q", a.Label)
	}
}

func TestSimulateConvenience(t *testing.T) {
	tr := workload.MustGenerate(workload.Recomm, workload.Options{Requests: 2000, Seed: 3})
	res, err := Simulate(context.Background(), Intel750(), tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency <= 0 || res.EnergyJoules <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	bad := Intel750()
	bad.Channels = 0
	if _, err := Simulate(context.Background(), bad, tr.Source()); err == nil {
		t.Fatal("invalid device should fail")
	}
}

func TestDescribeConfig(t *testing.T) {
	fw := newFramework(t, Options{Seed: 1})
	s := fw.DescribeConfig(fw.ReferenceConfig())
	if s == "" || len(s) < 40 {
		t.Fatalf("DescribeConfig too short: %q", s)
	}
}

func TestFrameworkPrune(t *testing.T) {
	fw := newFramework(t, Options{Seed: 3})
	learn(t, fw, []workload.Category{workload.Database, workload.WebSearch}, 6000)
	coarse, fine, err := fw.Prune("Database", PruneOptions{Seed: 3, Samples: 20})
	if err != nil {
		t.Fatal(err)
	}
	// 38 numeric + 4 tunable categorical dimensions.
	if len(coarse.Sweeps) != 42 || len(fine.Order) == 0 {
		t.Fatalf("prune outputs: %d sweeps, %d order", len(coarse.Sweeps), len(fine.Order))
	}
	if _, _, err := fw.Prune("nope", PruneOptions{}); err == nil {
		t.Fatal("unknown target should fail")
	}
}

func TestFrameworkWhatIf(t *testing.T) {
	fw := newFramework(t, Options{Seed: 4, WhatIfSpace: true,
		Tuner: TunerOptions{MaxIterations: 8, SGDSteps: 3}})
	learn(t, fw, []workload.Category{workload.WebSearch}, 6000)
	res, err := fw.WhatIf(WhatIfGoal{Target: "WebSearch", LatencyReduction: 1.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencySpeedup <= 0 || len(res.CriticalParams) == 0 {
		t.Fatalf("what-if result incomplete: %+v", res)
	}
}

func TestFrameworkProgressCallback(t *testing.T) {
	fw := newFramework(t, Options{Seed: 5})
	learn(t, fw, []workload.Category{workload.Database, workload.CloudStorage}, 6000)
	var calls int
	fw.SetProgress(func(iter int, best float64) { calls++ })
	if _, err := fw.Tune("Database"); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
}

// TestTuneSeedsFromAutoDB checks the workflow's step ①: a tune for a
// cluster with stored configurations starts from them, so a stored
// configuration far outside the search's reach still gets measured.
func TestTuneSeedsFromAutoDB(t *testing.T) {
	fw := newFramework(t, Options{Seed: 5})
	learn(t, fw, []workload.Category{workload.Database, workload.CloudStorage}, 6000)
	ref := fw.ReferenceConfig()
	far := ref
	for step := 0; step < 12; step++ {
		best, bestDist := far, -1
		for _, c := range fw.Space.Neighbors(far) {
			if d := manhattan(c, ref); d > bestDist {
				best, bestDist = c, d
			}
		}
		far = best
	}
	id := fw.Clusterer.ClusterOf("Database")
	if err := fw.DB.AddConfig(id, "Database", autodb.StoredConfig{Config: far}); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Tune("Database"); err != nil {
		t.Fatal(err)
	}
	for _, e := range fw.validator.SnapshotCache() {
		if e.CfgKey == far.Key() {
			return
		}
	}
	t.Fatalf("stored configuration (distance %d from the reference) was never measured", manhattan(far, ref))
}

func manhattan(a, b Config) int {
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += a[i] - b[i]
		} else {
			d += b[i] - a[i]
		}
	}
	return d
}

func TestNovelWorkloadFormsNewCategory(t *testing.T) {
	fw := newFramework(t, Options{Seed: 8, NewCategoryAfter: 1})
	learn(t, fw, []workload.Category{workload.WebSearch, workload.CloudStorage, workload.Database}, 12000)
	kBefore := fw.Clusterer.KMeans.K()

	// RadiusAuth is far from all three training categories.
	novel := workload.MustGenerate(workload.RadiusAuth, workload.Options{Requests: 9000, Seed: 9})
	rec, err := fw.Recommend(novel)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Assignment.IsNew {
		t.Skip("RadiusAuth not flagged novel under this training set")
	}
	if fw.Clusterer.KMeans.K() != kBefore+1 {
		t.Fatalf("clusterer K = %d, want %d (retrained with one more cluster)",
			fw.Clusterer.KMeans.K(), kBefore+1)
	}
	if rec.Tune == nil {
		t.Fatal("novel workload should have triggered tuning")
	}
}

func TestOutlierToleranceBeforeNewCategory(t *testing.T) {
	fw := newFramework(t, Options{Seed: 8, NewCategoryAfter: 3})
	learn(t, fw, []workload.Category{workload.WebSearch, workload.CloudStorage, workload.Database}, 12000)
	kBefore := fw.Clusterer.KMeans.K()

	// Two novel traces: tolerated as outliers of the nearest category
	// (tuned/served for that category, no retraining).
	for i := 0; i < 2; i++ {
		novel := workload.MustGenerate(workload.RadiusAuth, workload.Options{Requests: 9000, Seed: int64(20 + i)})
		rec, err := fw.Recommend(novel)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Assignment.IsNew {
			t.Skip("RadiusAuth not flagged novel under this training set")
		}
		if fw.Clusterer.KMeans.K() != kBefore {
			t.Fatal("retrained before the outlier threshold")
		}
	}
	// The third crosses the threshold.
	novel := workload.MustGenerate(workload.RadiusAuth, workload.Options{Requests: 9000, Seed: 30})
	if _, err := fw.Recommend(novel); err != nil {
		t.Fatal(err)
	}
	if fw.Clusterer.KMeans.K() != kBefore+1 {
		t.Fatalf("K = %d after threshold, want %d", fw.Clusterer.KMeans.K(), kBefore+1)
	}
}
