package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"autoblox/internal/linalg"
	"autoblox/internal/obs"
	"autoblox/internal/ridge"
	"autoblox/internal/ssdconf"
)

// insensitiveThreshold is the coarse-stage sensitivity floor: a
// parameter whose full-grid sweep moves Formula 1 by less than this (in
// log-ratio units) is insensitive.
const insensitiveThreshold = 0.01

// coefficientThreshold is the fine-stage ridge cutoff (paper: ±0.001).
const coefficientThreshold = 0.001

// ridgeAlpha is the fine-stage ridge regularization strength.
const ridgeAlpha = 1.0

// PruneOptions controls both pruning stages.
type PruneOptions struct {
	// Samples is the number of random configurations for the ridge fit.
	Samples int
	// Seed drives sampling.
	Seed int64
}

func (o *PruneOptions) defaults() {
	if o.Samples <= 0 {
		o.Samples = 64
	}
}

// SweepPoint is one measurement of a coarse-pruning sweep (Fig. 4).
type SweepPoint struct {
	Value       float64 // the parameter's concrete value
	Multiplier  float64 // value / baseline value
	Performance float64 // Formula 1 vs the baseline configuration
	// PowerWatts and LifetimeNS carry the point's power/lifetime axes
	// (filled on every sweep; they back the dominance-contribution
	// ranking on multi-objective spaces).
	PowerWatts float64
	LifetimeNS int64
}

// CoarseResult is the outcome of coarse-grained pruning.
type CoarseResult struct {
	// Sweeps holds the Fig. 4 series: per numeric parameter, performance
	// as the value grows from its baseline.
	Sweeps map[string][]SweepPoint
	// Sensitivity is the peak |performance| across each sweep.
	Sensitivity map[string]float64
	// Insensitive lists parameters below the threshold, in name order.
	// On a multi-objective space a parameter with any dominance
	// contribution is never insensitive: it moves the trade-off surface
	// even when Formula 1 alone is flat.
	Insensitive []string
	// DominanceContribution (multi-objective spaces only) counts, per
	// swept parameter, how many of its non-baseline sweep points are
	// non-dominated across the union of all sweeps — the sweeps' rank
	// under the objective vector.
	DominanceContribution map[string]int
}

// sweepIndices enumerates the grid indices a coarse sweep visits for one
// parameter, baseline first so the sweep's first point scores 0. Numeric
// grids grow upward from the baseline (Fig. 4's shape); categorical
// domains are unordered, so every alternative value is visited.
func sweepIndices(p *ssdconf.Param, baseIdx int) []int {
	out := []int{baseIdx}
	if p.Kind == ssdconf.Categorical {
		for idx := range p.Values {
			if idx != baseIdx {
				out = append(out, idx)
			}
		}
		return out
	}
	for idx := baseIdx + 1; idx < len(p.Values); idx++ {
		out = append(out, idx)
	}
	return out
}

// coarseSkip reports whether CoarsePrune leaves a parameter out of the
// sweep set: booleans (their two points carry no trend) and categorical
// parameters pinned by constraints.
func coarseSkip(p *ssdconf.Param) bool {
	return p.Kind == ssdconf.Boolean || (p.Kind == ssdconf.Categorical && !p.Tunable)
}

// CoarsePrune sweeps every numeric tunable parameter across its grid —
// and every tunable categorical across its whole domain — while holding
// the rest at the baseline, measuring Formula 1 on the target workload.
// Configuration constraints are deliberately ignored (§3.3: this stage
// "only prune[s] parameters that have almost no impact on the
// performance even if they break the configuration constraints").
func CoarsePrune(ctx context.Context, v *Validator, g *Grader, target string, base ssdconf.Config, opts PruneOptions) (*CoarseResult, error) {
	opts.defaults()
	sp := obs.StartSpan("coarse-prune").Arg("target", target)
	defer sp.End()
	factories, ok := v.Workloads[target]
	if !ok {
		return nil, fmt.Errorf("core: unknown target %q", target)
	}
	// The baseline and the whole config×value sweep run as one batch.
	type sweepSpec struct {
		param int
		idxs  []int
	}
	var specs []sweepSpec
	cfgs := []ssdconf.Config{base}
	for i := range v.Space.Params {
		p := &v.Space.Params[i]
		if coarseSkip(p) {
			continue
		}
		idxs := sweepIndices(p, base[i])
		specs = append(specs, sweepSpec{param: i, idxs: idxs})
		for _, idx := range idxs {
			cfg := base.Clone()
			cfg[i] = idx
			cfgs = append(cfgs, cfg)
		}
	}
	perfs, err := v.MeasureConfigs(ctx, cfgs, traceName(target, 0), factories[0])
	if err != nil {
		return nil, err
	}
	refPerf, perfs := perfs[0], perfs[1:]

	res := &CoarseResult{Sweeps: map[string][]SweepPoint{}, Sensitivity: map[string]float64{}}
	for _, sw := range specs {
		p := &v.Space.Params[sw.param]
		baseVal := p.Values[base[sw.param]]
		var sweep []SweepPoint
		maxAbs := 0.0
		for k, idx := range sw.idxs {
			perf := perfs[k]
			score := g.Performance(perf, refPerf)
			mult := p.Values[idx] / nonZero(baseVal)
			if p.Kind == ssdconf.Categorical {
				mult = 1 // unordered domain: a value ratio is meaningless
			}
			sweep = append(sweep, SweepPoint{
				Value:       p.Values[idx],
				Multiplier:  mult,
				Performance: score,
				PowerWatts:  perf.PowerWatts,
				LifetimeNS:  perf.ProjectedLifetimeNS,
			})
			if a := math.Abs(score); a > maxAbs {
				maxAbs = a
			}
		}
		perfs = perfs[len(sw.idxs):]
		res.Sweeps[p.Name] = sweep
		res.Sensitivity[p.Name] = maxAbs
		if maxAbs < insensitiveThreshold {
			res.Insensitive = append(res.Insensitive, p.Name)
		}
	}
	if !v.Space.Objectives.Scalar() {
		rankSweepsByDominance(v.Space, res)
	}
	sort.Strings(res.Insensitive)
	return res, nil
}

// rankSweepsByDominance scores each swept parameter by how many of its
// non-baseline points are non-dominated across the union of all sweeps
// under the space's objective vector, then rebuilds the
// insensitive list so a parameter that shapes the trade-off surface is
// kept even when its Formula 1 sweep is flat.
func rankSweepsByDominance(space *ssdconf.Space, res *CoarseResult) {
	var owners []string
	var vecs []Objectives
	for i := range space.Params {
		p := &space.Params[i]
		sweep, ok := res.Sweeps[p.Name]
		if !ok {
			continue
		}
		for _, pt := range sweep[1:] { // the shared baseline point credits nobody
			owners = append(owners, p.Name)
			vecs = append(vecs, objectiveVec(space.Objectives, pt.Performance, pt.PowerWatts, pt.LifetimeNS))
		}
	}
	res.DominanceContribution = map[string]int{}
	for name := range res.Sweeps {
		res.DominanceContribution[name] = 0
	}
	for _, i := range nondominated(vecs) {
		res.DominanceContribution[owners[i]]++
	}
	var insensitive []string
	for _, name := range res.Insensitive {
		if res.DominanceContribution[name] == 0 {
			insensitive = append(insensitive, name)
		}
	}
	res.Insensitive = insensitive
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// FineResult is the outcome of fine-grained (ridge) pruning.
type FineResult struct {
	// Coefficients maps parameter name to its standardized ridge
	// coefficient against Formula 1 (Fig. 5).
	Coefficients map[string]float64
	// Pruned lists parameters whose |coefficient| fell below the cutoff.
	Pruned []string
	// Order is the tuning order: kept parameters by descending
	// |coefficient| (§3.3/§3.4).
	Order []string
	// R2 is the ridge fit quality on the sampled configurations.
	R2 float64
}

// FinePrune samples constraint-respecting configurations around the
// baseline (varying the parameters that survived coarse pruning), fits a
// standardized ridge regression of Formula 1 against the parameter
// values, and prunes parameters with |coefficient| below the threshold.
func FinePrune(ctx context.Context, v *Validator, g *Grader, target string, base ssdconf.Config, coarseInsensitive []string, opts PruneOptions) (*FineResult, error) {
	opts.defaults()
	sp := obs.StartSpan("fine-prune").Arg("target", target)
	defer sp.End()
	factories, ok := v.Workloads[target]
	if !ok {
		return nil, fmt.Errorf("core: unknown target %q", target)
	}
	dropped := map[string]bool{}
	for _, n := range coarseInsensitive {
		dropped[n] = true
	}
	// Numeric and boolean axes regress on their raw value; tunable
	// categorical axes get a one-hot dummy block each (their wire values
	// are unordered, so a single scalar column would invent an ordering).
	var cols, catCols []int
	for i, p := range v.Space.Params {
		if !p.Tunable || dropped[p.Name] {
			continue
		}
		if p.Kind == ssdconf.Categorical {
			catCols = append(catCols, i)
			continue
		}
		cols = append(cols, i)
	}
	if len(cols)+len(catCols) == 0 {
		return nil, errors.New("core: nothing left to regress after coarse pruning")
	}
	perturbAxes := append(append([]int(nil), cols...), catCols...)

	// Sample acceptance depends only on the constraint checks, never on a
	// measurement, so the full sample set can be drawn up front (keeping
	// the rng sequence identical to the old measure-as-you-go loop) and
	// simulated, after the baseline, as one batch.
	rng := rand.New(rand.NewSource(opts.Seed))
	var samples []ssdconf.Config
	attempts := 0
	for len(samples) < opts.Samples && attempts < opts.Samples*6 {
		attempts++
		cfg := base.Clone()
		// Perturb a random subset of kept axes.
		for _, c := range perturbAxes {
			if rng.Float64() < 0.35 {
				cfg[c] = rng.Intn(len(v.Space.Params[c].Values))
			}
		}
		// Maintain the constraint region (§3.3: "We set a regression
		// space by maintaining the constraints").
		if !v.Space.RepairCapacity(cfg) {
			continue
		}
		if v.Space.CheckConstraints(cfg) != nil {
			continue
		}
		samples = append(samples, cfg)
	}
	if len(samples) < 8 {
		return nil, fmt.Errorf("core: only %d valid samples for ridge fit", len(samples))
	}
	perfs, err := v.MeasureConfigs(ctx, append([]ssdconf.Config{base}, samples...), traceName(target, 0), factories[0])
	if err != nil {
		return nil, err
	}
	refPerf, perfs := perfs[0], perfs[1:]

	width := len(cols)
	for _, c := range catCols {
		width += len(v.Space.Params[c].Values)
	}
	var rows [][]float64
	var ys []float64
	for k, cfg := range samples {
		row := make([]float64, width)
		for j, c := range cols {
			row[j] = v.Space.Value(cfg, c)
		}
		off := len(cols)
		for _, c := range catCols {
			row[off+cfg[c]] = 1
			off += len(v.Space.Params[c].Values)
		}
		rows = append(rows, row)
		ys = append(ys, g.Performance(perfs[k], refPerf))
	}

	x := linalg.FromRows(rows)
	model, err := ridge.Fit(x, ys, ridge.Config{Alpha: ridgeAlpha, Standardize: true})
	if err != nil {
		return nil, fmt.Errorf("core: ridge: %w", err)
	}

	res := &FineResult{Coefficients: map[string]float64{}, R2: model.R2(x, ys)}
	type ranked struct {
		name string
		coef float64
	}
	var keep []ranked
	record := func(name string, coef float64) {
		res.Coefficients[name] = coef
		if math.Abs(coef) < coefficientThreshold {
			res.Pruned = append(res.Pruned, name)
		} else {
			keep = append(keep, ranked{name, coef})
		}
	}
	for j, c := range cols {
		record(v.Space.Params[c].Name, model.Coef[j])
	}
	// A categorical's influence is its strongest dummy: the largest
	// |coefficient| across the one-hot block, sign preserved.
	off := len(cols)
	for _, c := range catCols {
		p := &v.Space.Params[c]
		coef := 0.0
		for k := range p.Values {
			if d := model.Coef[off+k]; math.Abs(d) > math.Abs(coef) {
				coef = d
			}
		}
		off += len(p.Values)
		record(p.Name, coef)
	}
	sort.Strings(res.Pruned)
	sort.SliceStable(keep, func(a, b int) bool {
		return math.Abs(keep[a].coef) > math.Abs(keep[b].coef)
	})
	for _, k := range keep {
		res.Order = append(res.Order, k.name)
	}
	return res, nil
}
