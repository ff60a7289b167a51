package core

import (
	"testing"

	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

func trainTraces(t *testing.T, cats []workload.Category, n int) []*trace.Trace {
	t.Helper()
	out := make([]*trace.Trace, len(cats))
	for i, c := range cats {
		out[i] = workload.MustGenerate(c, workload.Options{Requests: n, Seed: 77})
	}
	return out
}

func TestTrainClustererErrors(t *testing.T) {
	if _, err := TrainClusterer(nil, ClustererConfig{}); err == nil {
		t.Fatal("expected error with no traces")
	}
	short := []*trace.Trace{workload.MustGenerate(workload.Database, workload.Options{Requests: 100, Seed: 1})}
	if _, err := TrainClusterer(short, ClustererConfig{K: 5}); err == nil {
		t.Fatal("expected error when windows < K")
	}
}

func TestClusteringSeparatesCategories(t *testing.T) {
	cats := workload.Studied()
	traces := trainTraces(t, cats, 24000) // 8 windows each
	c, err := TrainClusterer(traces, ClustererConfig{K: len(cats), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Every training category should own at least one cluster label.
	owned := map[string]bool{}
	for _, l := range c.Labels {
		owned[l] = true
	}
	if len(owned) < len(cats)-1 {
		t.Fatalf("labels cover only %d categories: %v", len(owned), c.Labels)
	}
	// Fresh traces from the same categories (different seed) must land in
	// the right cluster — the paper's ~95% window-level accuracy claim.
	var fresh []*trace.Trace
	for _, cat := range cats {
		fresh = append(fresh, workload.MustGenerate(cat, workload.Options{Requests: 12000, Seed: 991}))
	}
	acc, err := c.ValidationAccuracy(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.75 {
		t.Fatalf("validation accuracy %.2f too low", acc)
	}
}

func TestAssignKnownAndNovel(t *testing.T) {
	// Five categories: the auto-adjusted threshold is the minimum
	// inter-center distance, so the training set must include reasonably
	// close families for novelty detection to be meaningful.
	cats := []workload.Category{workload.WebSearch, workload.CloudStorage, workload.Database,
		workload.KVStore, workload.Recomm}
	traces := trainTraces(t, cats, 18000)
	c, err := TrainClusterer(traces, ClustererConfig{K: 5, Seed: 2, AutoAdjustThreshold: true})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh WebSearch trace clusters as WebSearch and is not novel.
	ws := workload.MustGenerate(workload.WebSearch, workload.Options{Requests: 9000, Seed: 404})
	a, err := c.Assign(ws)
	if err != nil {
		t.Fatal(err)
	}
	if a.Label != string(workload.WebSearch) {
		t.Fatalf("WebSearch assigned to %q", a.Label)
	}
	if a.IsNew {
		t.Fatalf("WebSearch flagged as new (dist %.2f > thr %.2f)", a.Distance, c.Threshold)
	}
	// A very different workload (tiny log writes) should be far away.
	ra := workload.MustGenerate(workload.RadiusAuth, workload.Options{Requests: 9000, Seed: 404})
	an, err := c.Assign(ra)
	if err != nil {
		t.Fatal(err)
	}
	if an.Distance <= a.Distance {
		t.Fatalf("RadiusAuth dist %.2f should exceed WebSearch dist %.2f", an.Distance, a.Distance)
	}
	if !an.IsNew {
		t.Fatalf("RadiusAuth should be flagged novel (dist %.2f, thr %.2f)", an.Distance, c.Threshold)
	}
	if _, err := c.Assign(&trace.Trace{}); err == nil {
		t.Fatal("empty trace should error")
	}
}

func TestScatterAndDiameter(t *testing.T) {
	cats := []workload.Category{workload.WebSearch, workload.Database}
	c, err := TrainClusterer(trainTraces(t, cats, 12000), ClustererConfig{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pts := c.Scatter()
	if len(pts) < 6 {
		t.Fatalf("scatter has %d points", len(pts))
	}
	for _, p := range pts {
		if p.Category == "" || p.Cluster < 0 || p.Cluster >= 2 {
			t.Fatalf("bad scatter point %+v", p)
		}
	}
	for cl := 0; cl < 2; cl++ {
		if d := c.ClusterDiameter(cl); d < 0 {
			t.Fatalf("negative diameter %g", d)
		}
	}
	if c.ClusterOf(string(workload.WebSearch)) < 0 {
		t.Fatal("ClusterOf failed for a trained category")
	}
	if c.ClusterOf("nope") != -1 {
		t.Fatal("ClusterOf should return -1 for unknown")
	}
}

func TestClustererSerialization(t *testing.T) {
	cats := []workload.Category{workload.WebSearch, workload.CloudStorage}
	c, err := TrainClusterer(trainTraces(t, cats, 12000), ClustererConfig{K: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := UnmarshalClusterer(blob)
	if err != nil {
		t.Fatal(err)
	}
	probe := workload.MustGenerate(workload.CloudStorage, workload.Options{Requests: 9000, Seed: 55})
	a1, err1 := c.Assign(probe)
	a2, err2 := c2.Assign(probe)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a1.Cluster != a2.Cluster || a1.Label != a2.Label {
		t.Fatalf("restored model disagrees: %+v vs %+v", a1, a2)
	}
	if _, err := UnmarshalClusterer([]byte("{}")); err == nil {
		t.Fatal("incomplete blob should fail")
	}
	if _, err := UnmarshalClusterer([]byte("not json")); err == nil {
		t.Fatal("bad json should fail")
	}
	if got := len(c.Labels); got != 2 {
		t.Fatalf("cluster labels len %d", got)
	}
}

func TestAddWorkloadRetrains(t *testing.T) {
	cats := []workload.Category{workload.WebSearch, workload.CloudStorage, workload.Database}
	c, err := TrainClusterer(trainTraces(t, cats, 18000), ClustererConfig{K: 3, Seed: 2, AutoAdjustThreshold: true})
	if err != nil {
		t.Fatal(err)
	}
	// RadiusAuth is novel; retrain with one more cluster.
	ra := workload.MustGenerate(workload.RadiusAuth, workload.Options{Requests: 12000, Seed: 5})
	c2, err := c.AddWorkload(ra, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.KMeans.K() != 4 {
		t.Fatalf("retrained K = %d, want 4", c2.KMeans.K())
	}
	// The new workload now belongs to a cluster labeled after itself.
	a, err := c2.Assign(workload.MustGenerate(workload.RadiusAuth, workload.Options{Requests: 9000, Seed: 6}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Label != string(workload.RadiusAuth) {
		t.Fatalf("after retraining, RadiusAuth assigned to %q", a.Label)
	}
	if a.IsNew {
		t.Fatalf("after retraining, RadiusAuth should not be novel (dist %.2f, thr %.2f)", a.Distance, c2.Threshold)
	}
	// Old categories still resolve.
	ws, err := c2.Assign(workload.MustGenerate(workload.WebSearch, workload.Options{Requests: 9000, Seed: 6}))
	if err != nil {
		t.Fatal(err)
	}
	if ws.Label != string(workload.WebSearch) {
		t.Fatalf("WebSearch lost its cluster after retraining: %q", ws.Label)
	}
	// Deserialized models cannot retrain (no training data).
	blob, _ := c.Marshal()
	restored, _ := UnmarshalClusterer(blob)
	if _, err := restored.AddWorkload(ra, 2); err == nil {
		t.Fatal("deserialized model should refuse AddWorkload")
	}
}
