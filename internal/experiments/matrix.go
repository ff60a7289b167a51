package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"autoblox/internal/core"
)

// MatrixOptions selects the extra passes of a matrix experiment.
type MatrixOptions struct {
	// IgnoreNonTarget additionally learns β=0 configurations ("maximum
	// speedup of target workloads, ignore non-target", Table 1's lower
	// rows).
	IgnoreNonTarget bool
	// OrderAblation additionally runs each target *without* the §3.3
	// tuning order, for Figs. 9–10 (the default pipeline enforces the
	// order, as the paper does).
	OrderAblation bool
	// NoOrder disables the tuning-order stage entirely (skips the
	// fine-pruning pass; used by fast smoke runs).
	NoOrder bool
	// Targets restricts the tuned targets (default: every workload).
	Targets []string
}

// TargetRun holds everything learned for one target workload.
type TargetRun struct {
	Target string
	Result *core.TuneResult
	// Lat/Tput map workload -> speedup of the learned config vs the
	// reference (the Table 1/4/8/9 cell values).
	Lat, Tput map[string]float64
	// Energy maps workload -> [baselineJoules, learnedJoules] (Fig. 7).
	Energy map[string][2]float64

	// β=0 variant (ignore non-target), when requested.
	MaxLat  map[string]float64
	MaxTput map[string]float64
	// Order-ablation variants (Figs. 9–10), when requested. Both run on
	// fresh validators (no shared simulation cache) so wall-clock and
	// simulator-invocation counts are comparable.
	OrderedFresh  *core.TuneResult
	NoOrderResult *core.TuneResult
	// Order is the fine-pruning tuning order used by the main run.
	Order []string
}

// MatrixResult is a full Table 1-style experiment.
type MatrixResult struct {
	Env     *Env
	Targets []string
	Runs    map[string]*TargetRun
}

// RunMatrix tunes a configuration per target workload and measures the
// resulting lat/tput speedup matrix against the environment's reference.
func RunMatrix(e *Env, opts MatrixOptions) (*MatrixResult, error) {
	targets := opts.Targets
	if len(targets) == 0 {
		targets = e.Validator.Clusters()
	}
	res := &MatrixResult{Env: e, Targets: targets, Runs: map[string]*TargetRun{}}
	for _, target := range targets {
		run, err := runTarget(e, target, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: target %s: %w", target, err)
		}
		res.Runs[target] = run
	}
	return res, nil
}

func runTarget(e *Env, target string, opts MatrixOptions) (*TargetRun, error) {
	tOpts := e.tunerOptions()
	var order []string
	if !opts.NoOrder {
		// The default AutoBlox pipeline enforces the §3.3 tuning order
		// learned by fine-grained pruning (§4.3: "AutoBlox applied the
		// learning order ... to improve its learning efficiency").
		fine, err := core.FinePrune(e.ctx(), e.Validator, e.Grader, target, e.RefCfg, nil,
			core.PruneOptions{Seed: e.Scale.Seed, Samples: e.Scale.PruneSamples})
		if err != nil {
			return nil, err
		}
		order = fine.Order
		tOpts.UseTuningOrder = true
		tOpts.Order = order
	}
	tOpts.Checkpoint = e.checkpointFor(target)
	tuner, err := core.NewTuner(e.Space, e.Validator, e.Grader, tOpts)
	if err != nil {
		return nil, err
	}
	tr, err := tuner.Tune(e.ctx(), target, e.InitialConfigs())
	if err != nil {
		return nil, err
	}
	run := &TargetRun{Target: target, Result: tr, Order: order,
		Lat: map[string]float64{}, Tput: map[string]float64{}, Energy: map[string][2]float64{}}
	for cl, perfs := range tr.BestPerf {
		lat, tput := e.Grader.ClusterSpeedups(cl, perfs)
		run.Lat[cl], run.Tput[cl] = lat, tput
		run.Energy[cl] = [2]float64{e.Grader.Ref[cl][0].EnergyJoules, perfs[0].EnergyJoules}
	}

	if opts.IgnoreNonTarget {
		g0 := *e.Grader
		g0.Beta = 0
		bOpts := tOpts
		bOpts.Checkpoint, bOpts.Resume = "", false // distinct run; never share a checkpoint
		t0, err := core.NewTuner(e.Space, e.Validator, &g0, bOpts)
		if err != nil {
			return nil, err
		}
		mr, err := t0.Tune(e.ctx(), target, e.InitialConfigs())
		if err != nil {
			return nil, err
		}
		run.MaxLat, run.MaxTput = map[string]float64{}, map[string]float64{}
		for cl, perfs := range mr.BestPerf {
			run.MaxLat[cl], run.MaxTput[cl] = e.Grader.ClusterSpeedups(cl, perfs)
		}
	}

	if opts.OrderAblation {
		// Fresh validators per variant: the shared simulation cache would
		// otherwise make whichever variant runs second look nearly free.
		runFresh := func(useOrder bool) (*core.TuneResult, error) {
			v := e.coldValidator(e.Scale.Parallel)
			g, err := core.NewGrader(e.ctx(), v, e.RefCfg, core.DefaultAlpha, core.DefaultBeta)
			if err != nil {
				return nil, err
			}
			vOpts := tOpts
			vOpts.Checkpoint, vOpts.Resume = "", false
			vOpts.UseTuningOrder = useOrder
			if useOrder {
				vOpts.Order = order
			} else {
				vOpts.Order = nil
			}
			tn, err := core.NewTuner(e.Space, v, g, vOpts)
			if err != nil {
				return nil, err
			}
			return tn.Tune(e.ctx(), target, e.InitialConfigs())
		}
		or, err := runFresh(true)
		if err != nil {
			return nil, err
		}
		nr, err := runFresh(false)
		if err != nil {
			return nil, err
		}
		run.OrderedFresh, run.NoOrderResult = or, nr
	}
	return run, nil
}

// geoMeanExcluding returns the geometric mean of m's values over all
// workloads except the excluded one.
func geoMeanExcluding(m map[string]float64, exclude string, order []string) float64 {
	var sum float64
	var n int
	for _, k := range order {
		if k == exclude {
			continue
		}
		sum += math.Log(m[k])
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Exp(sum / float64(n))
}

// PrintMatrix renders the Table 1/4/8/9 layout: rows are measured
// workloads, columns are target workloads, cells are lat/tput speedups
// with the target-on-diagonal in brackets.
func (m *MatrixResult) PrintMatrix(w io.Writer) {
	fmt.Fprintf(w, "%-16s", "workload \\ target")
	for _, t := range m.Targets {
		fmt.Fprintf(w, " %12s", truncate(t, 12))
	}
	fmt.Fprintln(w)
	for _, wl := range m.Targets {
		fmt.Fprintf(w, "%-16s", truncate(wl, 16))
		for _, t := range m.Targets {
			run := m.Runs[t]
			cell := fmt.Sprintf("%.2f/%.2f", run.Lat[wl], run.Tput[wl])
			if wl == t {
				cell = "[" + cell + "]"
			}
			fmt.Fprintf(w, " %12s", cell)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-16s", "geomean(non-tgt)")
	for _, t := range m.Targets {
		run := m.Runs[t]
		cell := fmt.Sprintf("%.2f/%.2f",
			geoMeanExcluding(run.Lat, t, m.Targets), geoMeanExcluding(run.Tput, t, m.Targets))
		fmt.Fprintf(w, " %12s", cell)
	}
	fmt.Fprintln(w)

	if anyMax(m) {
		fmt.Fprintf(w, "%-16s", "max tgt (β=0)")
		for _, t := range m.Targets {
			run := m.Runs[t]
			cell := "-"
			if run.MaxLat != nil {
				cell = fmt.Sprintf("%.2f/%.2f", run.MaxLat[t], run.MaxTput[t])
			}
			fmt.Fprintf(w, " %12s", cell)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-16s", "worst non-tgt")
		for _, t := range m.Targets {
			run := m.Runs[t]
			cell := "-"
			if run.MaxLat != nil {
				worst := math.Inf(1)
				for _, wl := range m.Targets {
					if wl != t && run.MaxLat[wl] < worst {
						worst = run.MaxLat[wl]
					}
				}
				cell = fmt.Sprintf("%.2f", worst)
			}
			fmt.Fprintf(w, " %12s", cell)
		}
		fmt.Fprintln(w)
	}
}

func anyMax(m *MatrixResult) bool {
	for _, r := range m.Runs {
		if r.MaxLat != nil {
			return true
		}
	}
	return false
}

// PrintCriticalParams renders Table 5: the critical parameter values of
// each learned configuration next to the reference.
func (m *MatrixResult) PrintCriticalParams(w io.Writer) {
	names := []string{"CMTCapacity", "DataCacheSize", "FlashChannelCount", "ChipNoPerChannel",
		"DieNoPerChip", "PlaneNoPerDie", "BlockNoPerPlane", "PageNoPerBlock"}
	fmt.Fprintf(w, "%-22s %10s", "parameter", "reference")
	for _, t := range m.Targets {
		fmt.Fprintf(w, " %10s", truncate(t, 10))
	}
	fmt.Fprintln(w)
	for _, n := range names {
		fmt.Fprintf(w, "%-22s", n)
		if v, err := m.Env.Space.ValueByName(m.Env.RefCfg, n); err == nil {
			fmt.Fprintf(w, " %10g", v)
		}
		for _, t := range m.Targets {
			v, err := m.Env.Space.ValueByName(m.Runs[t].Result.Best, n)
			if err != nil {
				fmt.Fprintf(w, " %10s", "-")
				continue
			}
			fmt.Fprintf(w, " %10g", v)
		}
		fmt.Fprintln(w)
	}
}

// PrintEnergy renders Fig. 7: baseline vs learned energy per workload
// (each target's configuration measured on its own workload).
func (m *MatrixResult) PrintEnergy(w io.Writer) {
	fmt.Fprintf(w, "%-16s %14s %14s %8s\n", "workload", "baseline (J)", "learned (J)", "ratio")
	for _, t := range m.Targets {
		e := m.Runs[t].Energy[t]
		fmt.Fprintf(w, "%-16s %14.3f %14.3f %8.2fx\n", t, e[0], e[1], e[0]/e[1])
	}
}

// PrintLearningTime renders Fig. 8: per-target tuning wall time,
// iterations and simulator invocations.
func (m *MatrixResult) PrintLearningTime(w io.Writer) {
	fmt.Fprintf(w, "%-16s %12s %10s %9s %10s\n", "target", "wall time", "iters", "sims", "converged")
	var totalIters int
	for _, t := range m.Targets {
		r := m.Runs[t].Result
		fmt.Fprintf(w, "%-16s %12s %10d %9d %10v\n",
			t, r.Elapsed.Round(time.Millisecond), r.Iterations, r.SimRuns, r.Converged)
		totalIters += r.Iterations
	}
	fmt.Fprintf(w, "average iterations: %.1f (paper: 89 at full scale)\n",
		float64(totalIters)/float64(len(m.Targets)))
}

// PrintOrderTime renders Fig. 9: learning time with vs without the
// enforced order, for the targets where the ablation ran.
func (m *MatrixResult) PrintOrderTime(w io.Writer) {
	fmt.Fprintf(w, "%-16s %14s %14s %11s %11s %7s %7s\n",
		"target", "ordered time", "no-order time", "ordered G", "no-order G", "o.sims", "n.sims")
	for _, t := range m.Targets {
		r := m.Runs[t]
		if r.NoOrderResult == nil || r.OrderedFresh == nil {
			continue
		}
		fmt.Fprintf(w, "%-16s %14s %14s %11.4f %11.4f %7d %7d\n", t,
			r.OrderedFresh.Elapsed.Round(time.Millisecond), r.NoOrderResult.Elapsed.Round(time.Millisecond),
			r.OrderedFresh.BestGrade, r.NoOrderResult.BestGrade,
			r.OrderedFresh.SimRuns, r.NoOrderResult.SimRuns)
	}
}

// PrintTrajectories renders Fig. 10: the best-grade trajectories with
// and without the enforced order.
func (m *MatrixResult) PrintTrajectories(w io.Writer) {
	for _, t := range m.Targets {
		r := m.Runs[t]
		if r.NoOrderResult == nil || r.OrderedFresh == nil {
			continue
		}
		fmt.Fprintf(w, "%s ordered:  %s\n", t, sparkline(r.OrderedFresh.Trajectory))
		fmt.Fprintf(w, "%s unordered:%s\n", t, sparkline(r.NoOrderResult.Trajectory))
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// sparkline prints a numeric trajectory compactly.
func sparkline(xs []float64) string {
	out := ""
	for _, x := range xs {
		out += fmt.Sprintf(" %.3f", x)
	}
	return out
}
