// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§4). Each benchmark regenerates its artifact via
// internal/experiments and reports the headline quantities as custom
// metrics (speedups, iterations, accuracy), so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Results are memoized inside the
// experiments package: repeated b.N iterations reuse the computed
// artifact, so the benchmarks measure the (expensive) first run and then
// report stable metrics.
//
// Scale note: the paper tunes for 14–19 hours per workload on a 24-core
// Xeon. The benchmarks run the same pipeline at experiments.DefaultScale
// (shorter traces, smaller iteration budgets); EXPERIMENTS.md records the
// paper-vs-measured comparison for every artifact.
package autoblox_test

import (
	"io"
	"math"
	"testing"

	"autoblox/internal/experiments"
	"autoblox/internal/workload"
)

func benchScale() experiments.Scale { return experiments.DefaultScale() }

// result returns the memoized result the paper artifact id prints from.
func result[T any](b *testing.B, id string) T {
	b.Helper()
	r, err := experiments.Result(benchScale(), id)
	if err != nil {
		b.Fatal(err)
	}
	return r.(T)
}

// geoMean of a map's values.
func geoMean(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(m)))
}

// BenchmarkFig2Clustering reproduces the workload-clustering study:
// PCA+k-means over the seven studied categories, reporting held-out
// window accuracy (paper: ~95%).
func BenchmarkFig2Clustering(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		acc = result[*experiments.Fig2Result](b, "fig2").Accuracy
	}
	b.ReportMetric(acc*100, "accuracy_%")
}

// BenchmarkFig4CoarsePruning sweeps the 35 numeric parameters for the
// Database workload and reports how many are insensitive (paper: ~12).
func BenchmarkFig4CoarsePruning(b *testing.B) {
	var insensitive int
	for i := 0; i < b.N; i++ {
		insensitive = len(result[*experiments.Fig45Result](b, "fig4").Coarse.Insensitive)
	}
	b.ReportMetric(float64(insensitive), "insensitive_params")
}

// BenchmarkFig5FinePruning fits the ridge regression and reports the
// number of parameters surviving the ±0.001 cutoff.
func BenchmarkFig5FinePruning(b *testing.B) {
	var kept int
	var r2 float64
	for i := 0; i < b.N; i++ {
		r := result[*experiments.Fig45Result](b, "fig5")
		kept = len(r.Fine.Order)
		r2 = r.Fine.R2
	}
	b.ReportMetric(float64(kept), "kept_params")
	b.ReportMetric(r2, "ridge_r2")
}

// BenchmarkTable1LearnedConfigs tunes a configuration per studied
// workload (NVMe MLC vs Intel 750) and reports the geometric-mean
// target-workload latency speedup (paper: 1.25–1.93× per target).
func BenchmarkTable1LearnedConfigs(b *testing.B) {
	var m *experiments.MatrixResult
	for i := 0; i < b.N; i++ {
		m = result[*experiments.MatrixResult](b, "tab1")
	}
	diag := map[string]float64{}
	for _, t := range m.Targets {
		diag[t] = m.Runs[t].Lat[t]
	}
	b.ReportMetric(geoMean(diag), "geomean_target_lat_x")
	m.PrintMatrix(io.Discard)
}

// BenchmarkTable4NewWorkloads repeats the matrix for the six unseen
// workloads of Table 3 (paper: 1.34–1.53× target speedups).
func BenchmarkTable4NewWorkloads(b *testing.B) {
	var m *experiments.MatrixResult
	for i := 0; i < b.N; i++ {
		m = result[*experiments.MatrixResult](b, "tab4")
	}
	diag := map[string]float64{}
	for _, t := range m.Targets {
		diag[t] = m.Runs[t].Lat[t]
	}
	b.ReportMetric(geoMean(diag), "geomean_target_lat_x")
}

// BenchmarkTable5CriticalParams renders the learned critical-parameter
// table and reports how many learned configurations differ from the
// reference on at least one Table 5 parameter.
func BenchmarkTable5CriticalParams(b *testing.B) {
	var m *experiments.MatrixResult
	for i := 0; i < b.N; i++ {
		m = result[*experiments.MatrixResult](b, "tab5")
	}
	names := []string{"CMTCapacity", "DataCacheSize", "FlashChannelCount", "ChipNoPerChannel",
		"DieNoPerChip", "PlaneNoPerDie", "BlockNoPerPlane", "PageNoPerBlock"}
	differing := 0
	for _, t := range m.Targets {
		for _, n := range names {
			ref, _ := m.Env.Space.ValueByName(m.Env.RefCfg, n)
			got, _ := m.Env.Space.ValueByName(m.Runs[t].Result.Best, n)
			if ref != got {
				differing++
				break
			}
		}
	}
	b.ReportMetric(float64(differing), "configs_differing")
	m.PrintCriticalParams(io.Discard)
}

// BenchmarkTable6Overheads measures the component-time breakdown and
// reports the validation/learning cost ratio (paper: validation dominates
// by >100×).
func BenchmarkTable6Overheads(b *testing.B) {
	var o *experiments.OverheadResult
	for i := 0; i < b.N; i++ {
		o = result[*experiments.OverheadResult](b, "tab6")
	}
	b.ReportMetric(o.EfficiencyValidation.Seconds(), "validation_s")
	b.ReportMetric(o.FeatureExtractPer100K.Seconds(), "feature_extract_s")
}

// BenchmarkTable7WhatIf runs the what-if analysis for the four Table 7
// targets and reports how many goals were achieved plus the mean
// iteration count (paper: 121 iterations on average).
func BenchmarkTable7WhatIf(b *testing.B) {
	var runs []experiments.WhatIfRun
	for i := 0; i < b.N; i++ {
		runs = result[*experiments.WhatIfTable](b, "tab7").Runs
	}
	achieved, iters := 0, 0
	for _, r := range runs {
		if r.Result.Achieved {
			achieved++
		}
		iters += r.Result.Iterations
	}
	b.ReportMetric(float64(achieved), "goals_achieved")
	b.ReportMetric(float64(iters)/float64(len(runs)), "avg_iterations")
}

// BenchmarkTable8SLC repeats Table 1 under an SLC flash constraint with
// the Samsung Z-SSD reference.
func BenchmarkTable8SLC(b *testing.B) {
	var m *experiments.MatrixResult
	for i := 0; i < b.N; i++ {
		m = result[*experiments.MatrixResult](b, "tab8")
	}
	diag := map[string]float64{}
	for _, t := range m.Targets {
		diag[t] = m.Runs[t].Lat[t]
	}
	b.ReportMetric(geoMean(diag), "geomean_target_lat_x")
}

// BenchmarkTable9SATA repeats Table 1 under a SATA interface constraint
// with the Samsung 850 PRO reference.
func BenchmarkTable9SATA(b *testing.B) {
	var m *experiments.MatrixResult
	for i := 0; i < b.N; i++ {
		m = result[*experiments.MatrixResult](b, "tab9")
	}
	diag := map[string]float64{}
	for _, t := range m.Targets {
		diag[t] = m.Runs[t].Lat[t]
	}
	b.ReportMetric(geoMean(diag), "geomean_target_lat_x")
}

// BenchmarkFig7Energy reports the learned configurations' energy ratio
// vs the baseline (paper: up to 1.16× reduction, at most +5%).
func BenchmarkFig7Energy(b *testing.B) {
	var m *experiments.MatrixResult
	for i := 0; i < b.N; i++ {
		m = result[*experiments.MatrixResult](b, "fig7")
	}
	ratios := map[string]float64{}
	for _, t := range m.Targets {
		e := m.Runs[t].Energy[t]
		ratios[t] = e[0] / e[1]
	}
	b.ReportMetric(geoMean(ratios), "geomean_energy_ratio")
	m.PrintEnergy(io.Discard)
}

// BenchmarkFig8LearningTime reports the mean per-target iteration count
// and simulator invocations (paper: 89 iterations, 670.89s validations).
func BenchmarkFig8LearningTime(b *testing.B) {
	var m *experiments.MatrixResult
	for i := 0; i < b.N; i++ {
		m = result[*experiments.MatrixResult](b, "fig8")
	}
	var iters, sims int
	for _, t := range m.Targets {
		iters += m.Runs[t].Result.Iterations
		sims += m.Runs[t].Result.SimRuns
	}
	n := float64(len(m.Targets))
	b.ReportMetric(float64(iters)/n, "avg_iterations")
	b.ReportMetric(float64(sims)/n, "avg_simulations")
	m.PrintLearningTime(io.Discard)
}

// BenchmarkFig9TuningOrder compares learning with vs without the §3.3
// enforced tuning order (paper: ordered converges faster/better).
func BenchmarkFig9TuningOrder(b *testing.B) {
	var m *experiments.MatrixResult
	for i := 0; i < b.N; i++ {
		m = result[*experiments.MatrixResult](b, "fig9")
	}
	var orderedG, unorderedG float64
	var n int
	for _, t := range m.Targets {
		r := m.Runs[t]
		if r.NoOrderResult == nil || r.OrderedFresh == nil {
			continue
		}
		orderedG += r.OrderedFresh.BestGrade
		unorderedG += r.NoOrderResult.BestGrade
		n++
	}
	b.ReportMetric(orderedG/float64(n), "ordered_grade")
	b.ReportMetric(unorderedG/float64(n), "unordered_grade")
	m.PrintOrderTime(io.Discard)
}

// BenchmarkFig10Trajectory reports the final best grade of the ordered
// and unordered Database learning trajectories.
func BenchmarkFig10Trajectory(b *testing.B) {
	var m *experiments.MatrixResult
	for i := 0; i < b.N; i++ {
		m = result[*experiments.MatrixResult](b, "fig10")
	}
	r := m.Runs[string(workload.Database)]
	if r.OrderedFresh != nil && len(r.OrderedFresh.Trajectory) > 0 {
		b.ReportMetric(r.OrderedFresh.Trajectory[len(r.OrderedFresh.Trajectory)-1], "ordered_final_grade")
	}
	if r.NoOrderResult != nil && len(r.NoOrderResult.Trajectory) > 0 {
		b.ReportMetric(r.NoOrderResult.Trajectory[len(r.NoOrderResult.Trajectory)-1], "unordered_final_grade")
	}
}

// BenchmarkFig11AlphaSweep sweeps α and reports the Database latency and
// throughput speedups at α=0.5 (paper: both improve at 0.5).
func BenchmarkFig11AlphaSweep(b *testing.B) {
	var r *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		r = result[*experiments.SweepResult](b, "fig11")
	}
	mid := indexOf(r.Values, 0.5)
	db := string(workload.Database)
	b.ReportMetric(r.Lat[db][mid], "db_lat_x_at_0.5")
	b.ReportMetric(r.Tput[db][mid], "db_tput_x_at_0.5")
}

// BenchmarkFig12BetaSweep sweeps β and reports target vs non-target
// latency speedups at β=0.1 (the paper's sweet spot).
func BenchmarkFig12BetaSweep(b *testing.B) {
	var r *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		r = result[*experiments.SweepResult](b, "fig12")
	}
	mid := indexOf(r.Values, 0.1)
	db := string(workload.Database)
	b.ReportMetric(r.Lat[db][mid], "db_target_lat_x_at_0.1")
	b.ReportMetric(r.NonTarget[db][mid], "db_nontarget_lat_x_at_0.1")
}

func indexOf(xs []float64, v float64) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return 0
}
