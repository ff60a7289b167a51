package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"autoblox/internal/core"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// Fig2Result carries the clustering study.
type Fig2Result struct {
	Clusterer  *core.Clusterer
	Accuracy   float64
	Silhouette float64
	Points     []core.ScatterPoint
}

// RunFig2 trains the §3.1 clustering on the seven studied categories and
// validates window-level accuracy on held-out traces (paper: ~95%).
func RunFig2(scale Scale) (*Fig2Result, error) {
	var train, valid []*trace.Trace
	for _, c := range workload.Studied() {
		full, err := workload.Generate(c, workload.Options{Requests: scale.Requests * 4, Seed: scale.Seed})
		if err != nil {
			return nil, err
		}
		tr, va := full.Split(0.7)
		tr.Name, va.Name = full.Name, full.Name
		train = append(train, tr)
		valid = append(valid, va)
	}
	cl, err := core.TrainClusterer(train, core.ClustererConfig{
		K: len(workload.Studied()), Seed: scale.Seed, AutoAdjustThreshold: true,
	})
	if err != nil {
		return nil, err
	}
	acc, err := cl.ValidationAccuracy(valid)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Clusterer: cl, Accuracy: acc, Silhouette: cl.Silhouette(),
		Points: cl.Scatter()}, nil
}

// Print renders the Fig. 2 scatter (PCA dims 1–2) and accuracy.
func (r *Fig2Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%-16s %10s %10s %8s\n", "category", "pc1", "pc2", "cluster")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-16s %10.3f %10.3f %8d\n", p.Category, p.X, p.Y, p.Cluster)
	}
	fmt.Fprintf(w, "validation accuracy: %.1f%% (paper: ~95%%); silhouette %.2f\n",
		r.Accuracy*100, r.Silhouette)
}

// Fig45Result carries both pruning studies for one target.
type Fig45Result struct {
	Target string
	Coarse *core.CoarseResult
	Fine   *core.FineResult
}

// RunFig45 runs coarse- and fine-grained pruning for a target workload.
func RunFig45(e *Env, target string) (*Fig45Result, error) {
	opts := core.PruneOptions{Seed: e.Scale.Seed, Samples: e.Scale.PruneSamples}
	coarse, err := core.CoarsePrune(e.ctx(), e.Validator, e.Grader, target, e.RefCfg, opts)
	if err != nil {
		return nil, err
	}
	fine, err := core.FinePrune(e.ctx(), e.Validator, e.Grader, target, e.RefCfg, coarse.Insensitive, opts)
	if err != nil {
		return nil, err
	}
	return &Fig45Result{Target: target, Coarse: coarse, Fine: fine}, nil
}

// PrintCoarse renders the Fig. 4 sensitivity sweep summary, most
// sensitive parameter first and ties in name order.
func (r *Fig45Result) PrintCoarse(w io.Writer) {
	names := make([]string, 0, len(r.Coarse.Sensitivity))
	for n := range r.Coarse.Sensitivity {
		names = append(names, n)
	}
	sort.Strings(names)
	sort.SliceStable(names, func(a, b int) bool {
		return r.Coarse.Sensitivity[names[a]] > r.Coarse.Sensitivity[names[b]]
	})
	fmt.Fprintf(w, "%-28s %12s %6s\n", "parameter", "sensitivity", "flat?")
	for _, n := range names {
		flat := ""
		if r.Coarse.Sensitivity[n] < 0.01 {
			flat = "yes"
		}
		fmt.Fprintf(w, "%-28s %12.4f %6s\n", n, r.Coarse.Sensitivity[n], flat)
	}
	fmt.Fprintf(w, "insensitive parameters (%d, paper finds ~12): %v\n",
		len(r.Coarse.Insensitive), r.Coarse.Insensitive)
}

// PrintFine renders the Fig. 5 ridge coefficients and tuning order.
func (r *Fig45Result) PrintFine(w io.Writer) {
	fmt.Fprintf(w, "%-28s %12s\n", "parameter", "coefficient")
	for _, n := range r.Fine.Order {
		fmt.Fprintf(w, "%-28s %+12.5f\n", n, r.Fine.Coefficients[n])
	}
	fmt.Fprintf(w, "pruned below |0.001|: %v\nR² of the ridge fit: %.3f\ntuning order: %v\n",
		r.Fine.Pruned, r.Fine.R2, r.Fine.Order)
}

// SweepResult carries the α (Fig. 11) or β (Fig. 12) study: for each
// target, the learned configuration's speedups as the grade weight
// Param varies.
type SweepResult struct {
	Param     string // "alpha" or "beta"
	Values    []float64
	Workloads []string
	// Lat/Tput: workload -> per-value target speedups.
	Lat, Tput map[string][]float64
	// NonTarget: workload -> per-value geomean non-target latency speedup
	// (used by the β study).
	NonTarget map[string][]float64
}

// runSweep reproduces Fig. 11 (param "alpha") or Fig. 12 ("beta"): it
// tunes each of three representative workloads once per value of the
// grade weight.
func runSweep(e *Env, param string) (*SweepResult, error) {
	values := []float64{0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}
	targets := []string{string(workload.Database), string(workload.KVStore), string(workload.LiveMaps)}
	res := &SweepResult{Param: param, Values: values, Workloads: targets,
		Lat: map[string][]float64{}, Tput: map[string][]float64{}, NonTarget: map[string][]float64{}}
	for _, target := range targets {
		for _, val := range values {
			g := *e.Grader
			opts := e.tunerOptions()
			if param == "alpha" {
				g.Alpha = val
			} else {
				g.Beta = val
			}
			// The paper resets the model and AutoDB per point; a fresh
			// tuner from the reference does the same here.
			t, err := core.NewTuner(e.Space, e.Validator, &g, opts)
			if err != nil {
				return nil, err
			}
			tr, err := t.Tune(e.ctx(), target, e.InitialConfigs())
			if err != nil {
				return nil, err
			}
			lat, tput := e.Grader.ClusterSpeedups(target, tr.BestPerf[target])
			res.Lat[target] = append(res.Lat[target], lat)
			res.Tput[target] = append(res.Tput[target], tput)

			ntLat := map[string]float64{}
			for cl, perfs := range tr.BestPerf {
				l, _ := e.Grader.ClusterSpeedups(cl, perfs)
				ntLat[cl] = l
			}
			res.NonTarget[target] = append(res.NonTarget[target],
				geoMeanExcluding(ntLat, target, e.Validator.Clusters()))
		}
	}
	return res, nil
}

// Print renders the sweep as a table per workload.
func (r *SweepResult) Print(w io.Writer) {
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "target %s:\n", wl)
		fmt.Fprintf(w, "  %-8s %10s %10s %14s\n", r.Param, "lat x", "tput x", "non-tgt lat x")
		for i, v := range r.Values {
			fmt.Fprintf(w, "  %-8.2f %10.2f %10.2f %14.2f\n",
				v, r.Lat[wl][i], r.Tput[wl][i], r.NonTarget[wl][i])
		}
	}
}

// OverheadResult is the Table 6 component-time breakdown.
type OverheadResult struct {
	FeatureExtractPer100K time.Duration
	SimilarityCompare     time.Duration
	Clustering            time.Duration
	DBLookup              time.Duration
	LearningPerIteration  time.Duration
	EfficiencyValidation  time.Duration
}

// Print renders Table 6.
func (o *OverheadResult) Print(w io.Writer) {
	rows := []struct {
		name string
		d    time.Duration
	}{
		{"Extract workload features per 100K I/O requests", o.FeatureExtractPer100K},
		{"Workload similarity comparison", o.SimilarityCompare},
		{"Workload clustering", o.Clustering},
		{"AutoDB database lookup", o.DBLookup},
		{"New configuration learning per iteration", o.LearningPerIteration},
		{"Efficiency validation", o.EfficiencyValidation},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-52s %12.4fs\n", r.name, r.d.Seconds())
	}
}
