package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/gpr"
	"autoblox/internal/obs"
	"autoblox/internal/ssdconf"
)

// ErrInterrupted marks a tuning run stopped by context cancellation
// (Ctrl-C, a deadline). When checkpointing is on, the checkpoint on
// disk reflects the last completed iteration; re-running with Resume
// continues from exactly there.
var ErrInterrupted = errors.New("core: tuning interrupted")

// TopK is the size of the retained best-configuration set and the
// root-selection pool (paper §3.4: top 3).
const TopK = 3

// convergenceBound is the paper's stop-rule band: the search converges
// once the best grade stays within [-1%, 1%] for a full window.
const convergenceBound = 0.01

// TunerOptions configures the automated tuning loop of §3.4. Zero values
// select the paper's defaults.
type TunerOptions struct {
	// Alpha overrides the Formula 1 balance for WhatIf only (zero keeps
	// the goal-derived bias, else the grader's). Tune takes α and β from
	// its Grader.
	Alpha float64
	// Deprecated: Beta is ignored; Tune takes β from its Grader. It
	// stays so existing callers still compile.
	Beta float64
	Seed int64

	// MaxIterations caps the outer search iterations (the paper observes
	// 89 on average before convergence; scaled runs use fewer).
	MaxIterations int
	// SGDSteps is the per-iteration gradient-descent step budget
	// (paper: 10).
	SGDSteps int
	// ManhattanLimit is the exploration bound: SGD stops expanding once
	// the candidate's minimum Manhattan distance to the validated set
	// reaches this value (paper: 5).
	ManhattanLimit int
	// ConvergenceWindow is the paper's stop-rule window: converge when
	// the best grade stays within convergenceBound for this many
	// iterations (default 8).
	ConvergenceWindow int

	// UseTuningOrder enables the §3.3 learning rule: SGD explores
	// parameters in descending |ridge coefficient| order. Order holds
	// the parameter names; empty means all tunable axes every step.
	UseTuningOrder bool
	Order          []string

	// DisableValidationPruning turns off the §3.4 optimization that
	// skips non-target workload runs for clearly-losing configurations
	// (used by the ablation benchmarks).
	DisableValidationPruning bool

	// StopCondition, when set, ends the search as soon as the best
	// configuration's latency/throughput speedups over the reference
	// satisfy it — the what-if analysis' performance-target stop (§4.5).
	StopCondition func(latSpeedup, tputSpeedup float64) bool

	// OnIteration, when set, is invoked after every search iteration
	// with the iteration index and the best grade so far (progress
	// reporting in CLIs).
	OnIteration func(iter int, bestGrade float64)

	// OnFront, when set, is invoked after every Pareto-mode iteration
	// with the current non-dominated front size and its normalized
	// hypervolume (progress reporting; scalar runs never call it).
	OnFront func(size int, hypervolume float64)

	// OnCheckpoint, when set, is invoked after every successful
	// checkpoint write with the checkpoint path (freshness reporting:
	// /tunez serves the checkpoint age from it).
	OnCheckpoint func(path string)

	// Checkpoint, when non-empty, is a JSON file the tuner atomically
	// rewrites after frontier initialization and after every iteration,
	// capturing everything the next iteration depends on.
	Checkpoint string
	// Resume restores state from Checkpoint before tuning, skipping all
	// completed work; the continued run is bit-identical to one that was
	// never interrupted. A missing checkpoint file starts a fresh run,
	// so crash-restart loops can pass Resume unconditionally. Resume
	// requires a freshly constructed Tuner (its RNG must be unused).
	Resume bool
}

func (o *TunerOptions) defaults() {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 89
	}
	if o.SGDSteps <= 0 {
		o.SGDSteps = 10
	}
	if o.ManhattanLimit <= 0 {
		o.ManhattanLimit = 5
	}
	if o.ConvergenceWindow <= 0 {
		o.ConvergenceWindow = 8
	}
}

// countingSource wraps a rand.Source64, counting draws. Every draw a
// *rand.Rand makes resolves to exactly one Int63 or Uint64 call on its
// source, and both advance the underlying generator by one step — so a
// resumed run restores RNG state by replaying the recorded number of
// draws against a freshly seeded source.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// fastForward advances a fresh source to the recorded draw count.
func (c *countingSource) fastForward(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.draws = n
}

// Tuner learns optimized SSD configurations for a target workload.
type Tuner struct {
	Space     *ssdconf.Space
	Validator *Validator
	Grader    *Grader
	Opts      TunerOptions

	rng *rand.Rand
	// rngSrc is rng's draw-counting source; nil on tuners built without
	// NewTuner (checkpointing is then unavailable).
	rngSrc *countingSource
	// orderIdx caches the resolved tuning-order parameter indices.
	orderIdx []int
}

// entry is one validated configuration.
type entry struct {
	cfg        ssdconf.Config
	vec        []float64
	grade      float64
	targetPerf float64
	latSp      float64 // target-cluster latency speedup vs reference
	tputSp     float64 // target-cluster throughput speedup vs reference
	full       bool    // true when non-target workloads were validated too
	// power and lifetimeNS back the power/lifetime objective axes: mean
	// target-cluster power draw, and the worst (smallest positive)
	// projected lifetime across the target traces (0 = no wear).
	power      float64
	lifetimeNS int64
}

// TuneResult reports a finished tuning run.
type TuneResult struct {
	Target     string
	Best       ssdconf.Config
	BestGrade  float64
	BestPerf   map[string][]autodb.Perf // best config measured on every cluster
	Iterations int
	SimRuns    int
	Converged  bool
	Elapsed    time.Duration
	// Trajectory is the best grade after each iteration (Fig. 10).
	Trajectory []float64
	// PrunedValidations counts iterations where the §3.4 shortcut
	// skipped the non-target runs.
	PrunedValidations int
	// RejectedByPower counts candidates dropped by the power budget.
	RejectedByPower int
	// Front is the non-dominated set over the validated configurations
	// (Pareto mode only), best grade first; Hypervolume is its
	// normalized dominated volume. Scalar runs leave both zero.
	Front       []FrontPoint
	Hypervolume float64
}

// NewTuner wires a tuner; grader and validator must share the space.
func NewTuner(space *ssdconf.Space, v *Validator, g *Grader, opts TunerOptions) (*Tuner, error) {
	opts.defaults()
	src := &countingSource{src: rand.NewSource(opts.Seed ^ 0x5f3759df).(rand.Source64)}
	t := &Tuner{Space: space, Validator: v, Grader: g, Opts: opts,
		rng: rand.New(src), rngSrc: src}
	if opts.UseTuningOrder {
		for _, name := range opts.Order {
			i, err := space.ParamIndex(name)
			if err != nil {
				return nil, fmt.Errorf("core: tuning order: %w", err)
			}
			t.orderIdx = append(t.orderIdx, i)
		}
	}
	return t, nil
}

// freshMeasurements counts measurements that were not served from the
// memo cache, wherever they executed: in-process simulations plus
// results returned by a distributed backend.
func freshMeasurements(v *Validator) int {
	st := v.Stats()
	return int(st.SimRuns + st.RemoteResults)
}

// Tune learns an optimized configuration for the target cluster,
// starting from the given initial configurations (from AutoDB when the
// cluster is known, else the commodity reference). Cancelling ctx stops
// the search between (and, cooperatively, within) iterations with
// ErrInterrupted; with Opts.Checkpoint set, the snapshot of the last
// completed iteration survives on disk for Opts.Resume.
func (t *Tuner) Tune(ctx context.Context, target string, initial []ssdconf.Config) (*TuneResult, error) {
	if _, ok := t.Validator.Workloads[target]; !ok {
		return nil, fmt.Errorf("core: unknown target workload %q", target)
	}
	if len(initial) == 0 {
		return nil, errors.New("core: no initial configurations")
	}
	start := time.Now()
	simStart := freshMeasurements(t.Validator)
	tsp := obs.StartSpan("tune").Arg("target", target)
	defer tsp.End()

	res := &TuneResult{Target: target}
	var validated []entry
	seen := map[string]bool{}
	startIter := 0
	noProgress := 0

	resumed := false
	if t.Opts.Resume && t.Opts.Checkpoint != "" {
		ck, err := loadCheckpoint(t.Opts.Checkpoint)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// No checkpoint yet: fall through to a fresh run.
		case err != nil:
			return nil, err
		default:
			if err := t.restoreCheckpoint(ck, target, res, &validated, seen, &startIter, &noProgress); err != nil {
				return nil, err
			}
			resumed = true
		}
	}

	if !resumed {
		var err error
		if validated, err = t.frontier(ctx, target, initial, seen, res); err != nil {
			return nil, err
		}
		if err := t.saveCheckpoint(target, 0, noProgress, res, validated, seen); err != nil {
			return nil, err
		}
	}

	for iter := startIter; iter < t.Opts.MaxIterations; iter++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("%w before iteration %d: %v", ErrInterrupted, iter, cerr)
		}
		res.Iterations++

		// The iteration body runs in a closure so its trace span ends
		// exactly once on every exit path (advance, no-candidate,
		// convergence, error).
		stop, err := func() (bool, error) {
			sp := obs.StartSpan("iteration").ArgInt("iter", int64(iter))
			defer sp.End()

			// ②–⑤ pick search roots, run the SGD + GPR search from each,
			// and validate the proposals.
			advanced := false
			roots := t.searchRoots(validated)
			for _, rootIdx := range roots {
				// The surrogate targets are recomputed per root: each
				// validation extends the set the GPR fits on.
				ys := t.searchScores(validated, iter)
				cand := t.sgdSearch(validated[rootIdx], ys[rootIdx], ys, validated, seen, iter)
				if cand == nil {
					continue
				}
				worst := worstRetainedGrade(validated, TopK)
				e, rejected, err := t.evaluate(ctx, target, cand, worst, res)
				if err != nil {
					return true, err
				}
				seen[cand.Key()] = true
				if !rejected {
					validated = append(validated, e)
				}
				advanced = true
			}
			sp.ArgInt("roots", int64(len(roots)))
			res.Trajectory = append(res.Trajectory, bestGrade(validated))
			if !advanced {
				noProgress++
				if noProgress >= 3 {
					res.Converged = true
					return true, nil
				}
				return false, nil
			}
			noProgress = 0

			if t.Opts.OnIteration != nil {
				t.Opts.OnIteration(iter, bestGrade(validated))
			}
			if t.pareto() {
				front, hv := buildFront(t.Space.Objectives, validated)
				t.Validator.Obs.Gauge(MetricFrontSize).Set(float64(len(front)))
				t.Validator.Obs.Gauge(MetricFrontHypervolume).Set(hv)
				if t.Opts.OnFront != nil {
					t.Opts.OnFront(len(front), hv)
				}
			}
			if t.Opts.StopCondition != nil {
				b := bestEntry(validated)
				if t.Opts.StopCondition(b.latSp, b.tputSp) {
					res.Converged = true
					return true, nil
				}
			}
			if t.converged(res.Trajectory) {
				res.Converged = true
				return true, nil
			}
			return false, nil
		}()
		if err != nil {
			if ctx.Err() != nil {
				// A cancelled measurement mid-iteration: the checkpoint on
				// disk still reflects the last completed iteration, because
				// evaluate mutates no tuner state on failure.
				return nil, fmt.Errorf("%w during iteration %d: %v", ErrInterrupted, iter, err)
			}
			return nil, err
		}
		if err := t.saveCheckpoint(target, iter+1, noProgress, res, validated, seen); err != nil {
			return nil, err
		}
		if stop {
			break
		}
	}

	if err := t.report(ctx, validated, res, start, simStart); err != nil {
		return nil, err
	}
	return res, nil
}

// frontier runs step ① of §3.4: it validates the initial configurations
// that satisfy the constraints (each once; seen records them) and
// returns the ones the power budget keeps. The whole frontier's
// target-cluster runs fan out as one batch; the non-target runs batch
// after the power-budget filter so a rejected configuration costs no
// non-target simulations — the same economy as serial evaluation, just
// concurrent.
func (t *Tuner) frontier(ctx context.Context, target string, initial []ssdconf.Config, seen map[string]bool, res *TuneResult) ([]entry, error) {
	var initCfgs []ssdconf.Config
	for _, cfg := range initial {
		if err := t.Space.CheckConstraints(cfg); err != nil {
			continue
		}
		if seen[cfg.Key()] {
			continue
		}
		seen[cfg.Key()] = true
		initCfgs = append(initCfgs, cfg)
	}
	sp := obs.StartSpan("frontier").ArgInt("configs", int64(len(initCfgs)))
	defer sp.End()
	targets, err := t.Validator.measureGrid(ctx, initCfgs, []string{target})
	if err != nil {
		return nil, err
	}
	var validated []entry
	var live []ssdconf.Config
	for i, cfg := range initCfgs {
		if e, ok := t.scoreTarget(target, cfg, targets[i][target], res); ok {
			validated = append(validated, e)
			live = append(live, cfg)
		}
	}
	nonTargets, err := t.Validator.measureGrid(ctx, live, t.Validator.NonTargetClusters(target))
	if err != nil {
		return nil, err
	}
	for i := range validated {
		t.scoreFull(&validated[i], nonTargets[i])
	}
	if len(validated) == 0 {
		return nil, errors.New("core: no initial configuration satisfies the constraints (capacity/power)")
	}
	return validated, nil
}

// report fills the final fields of res: the best configuration, fully
// measured on every cluster as one parallel batch, the Pareto front
// (Pareto mode only), and the run's fresh measurements and wall clock
// since start/simStart.
func (t *Tuner) report(ctx context.Context, validated []entry, res *TuneResult, start time.Time, simStart int) error {
	best := bestEntry(validated)
	res.Best = best.cfg
	res.BestGrade = best.grade
	sp := obs.StartSpan("final-measure").Arg("config", best.cfg.Key())
	defer sp.End()
	perfs, err := t.Validator.measureGrid(ctx, []ssdconf.Config{best.cfg}, t.Validator.Clusters())
	if err != nil {
		return err
	}
	res.BestPerf = perfs[0]
	if t.pareto() {
		res.Front, res.Hypervolume = buildFront(t.Space.Objectives, validated)
	}
	res.SimRuns = freshMeasurements(t.Validator) - simStart
	res.Elapsed = time.Since(start)
	return nil
}

// pareto reports whether this tuner searches the objective vector
// rather than the scalar grade. Scalar mode is the one-root case of the
// Pareto walk; the pareto() branches that remain pick the roots, the
// surrogate targets and the validation-pruning rule (see DESIGN.md §4i
// for why the last two stay scalar-specific).
func (t *Tuner) pareto() bool { return !t.Space.Objectives.Scalar() }

// saveCheckpoint snapshots the run if checkpointing is enabled. iter is
// the next iteration to run on resume; the RNG draw count is read at
// save time, i.e. the stream position that iteration will start from.
func (t *Tuner) saveCheckpoint(target string, iter, noProgress int, res *TuneResult, validated []entry, seen map[string]bool) error {
	if t.Opts.Checkpoint == "" || t.rngSrc == nil {
		return nil
	}
	ck := &checkpointFile{
		Version:           checkpointVersion,
		Target:            target,
		Seed:              t.Opts.Seed,
		SpaceSig:          t.Space.Signature(),
		Iteration:         iter,
		NoProgress:        noProgress,
		RNGDraws:          t.rngSrc.draws,
		Trajectory:        res.Trajectory,
		PrunedValidations: res.PrunedValidations,
		RejectedByPower:   res.RejectedByPower,
		Objectives:        t.Space.Objectives.Names(),
		Validated:         make([]checkpointEntry, len(validated)),
		Seen:              make([]string, 0, len(seen)),
		Cache:             t.Validator.SnapshotCache(),
	}
	if t.pareto() {
		ck.Front, _ = buildFront(t.Space.Objectives, validated)
	}
	for i, e := range validated {
		ck.Validated[i] = checkpointEntry{
			Cfg: e.cfg, Grade: e.grade, TargetPerf: e.targetPerf,
			LatSp: e.latSp, TputSp: e.tputSp, Full: e.full,
			Power: e.power, LifetimeNS: e.lifetimeNS,
		}
	}
	for k := range seen {
		ck.Seen = append(ck.Seen, k)
	}
	sort.Strings(ck.Seen)
	if err := writeCheckpoint(t.Opts.Checkpoint, ck); err != nil {
		return err
	}
	obs.RecordEvent("checkpoint", "path", t.Opts.Checkpoint, "iter", strconv.Itoa(iter))
	if t.Opts.OnCheckpoint != nil {
		t.Opts.OnCheckpoint(t.Opts.Checkpoint)
	}
	return nil
}

// restoreCheckpoint rebuilds the tuner's in-flight state from a
// snapshot, after validating that it belongs to this (target, seed,
// space) run.
func (t *Tuner) restoreCheckpoint(ck *checkpointFile, target string, res *TuneResult, validated *[]entry, seen map[string]bool, startIter, noProgress *int) error {
	if err := upgradeCheckpoint(ck, t.pareto()); err != nil {
		return err
	}
	if spec, err := ssdconf.ObjectiveSpecFromNames(ck.Objectives); err != nil {
		return fmt.Errorf("%w: bad objective axes: %v", ErrCheckpointIncompatible, err)
	} else if spec.String() != t.Space.Objectives.String() {
		return fmt.Errorf("%w: checkpoint optimizes %q, this run optimizes %q", ErrCheckpointIncompatible, spec, t.Space.Objectives)
	}
	if ck.Target != target {
		return fmt.Errorf("core: checkpoint targets %q, this run targets %q", ck.Target, target)
	}
	if ck.Seed != t.Opts.Seed {
		return fmt.Errorf("core: checkpoint seed %d, this run seeds %d", ck.Seed, t.Opts.Seed)
	}
	if sig := t.Space.Signature(); ck.SpaceSig != sig {
		return fmt.Errorf("core: checkpoint space signature %s does not match this space (%s); constraints, grids or fault profile changed", ck.SpaceSig, sig)
	}
	if t.rngSrc == nil {
		return errors.New("core: this tuner was not built by NewTuner; cannot resume")
	}
	if t.rngSrc.draws != 0 {
		return errors.New("core: resume requires a freshly constructed tuner")
	}
	if len(ck.Validated) == 0 {
		return errors.New("core: checkpoint has no validated configurations")
	}
	n := t.Space.NumParams()
	for _, ve := range ck.Validated {
		if len(ve.Cfg) != n {
			return fmt.Errorf("core: checkpoint config has %d parameters, space has %d", len(ve.Cfg), n)
		}
		cfg := ssdconf.Config(append([]int(nil), ve.Cfg...))
		*validated = append(*validated, entry{
			cfg: cfg, vec: t.Space.Vector(cfg), grade: ve.Grade,
			targetPerf: ve.TargetPerf, latSp: ve.LatSp, tputSp: ve.TputSp, full: ve.Full,
			power: ve.Power, lifetimeNS: ve.LifetimeNS,
		})
	}
	for _, k := range ck.Seen {
		seen[k] = true
	}
	res.Iterations = ck.Iteration
	res.Trajectory = append(res.Trajectory, ck.Trajectory...)
	res.PrunedValidations = ck.PrunedValidations
	res.RejectedByPower = ck.RejectedByPower
	*startIter = ck.Iteration
	*noProgress = ck.NoProgress
	t.Validator.RestoreCache(ck.Cache)
	t.rngSrc.fastForward(ck.RNGDraws)
	return nil
}

// evaluate validates cfg: target cluster first, then (unless pruned) the
// non-target clusters; the power budget is enforced on the target run.
// worst is the worst retained grade for the §3.4 validation-pruning
// shortcut (-Inf disables it). It returns the entry and whether the
// config was rejected outright (power).
func (t *Tuner) evaluate(ctx context.Context, target string, cfg ssdconf.Config, worst float64, res *TuneResult) (entry, bool, error) {
	perfs, err := t.Validator.MeasureCluster(ctx, cfg, target)
	if err != nil {
		return entry{}, false, err
	}
	e, ok := t.scoreTarget(target, cfg, perfs, res)
	if !ok {
		return e, true, nil
	}

	// Validation-pruning shortcut: if even the target-only share of the
	// grade loses to the worst retained configuration, skip the
	// non-target runs — the grade can only get more expensive to confirm
	// as a loser. Pareto mode never takes it: a grade-losing candidate
	// may still be non-dominated on power or lifetime, and dominance
	// needs every axis fully measured.
	if !t.Opts.DisableValidationPruning && !t.pareto() && t.Grader.TargetHalf(e.targetPerf) < worst && !math.IsInf(worst, -1) {
		e.grade = t.Grader.TargetHalf(e.targetPerf)
		e.full = false
		res.PrunedValidations++
		return e, false, nil
	}

	// Non-target validation: the candidate's whole remaining frontier
	// (every non-target cluster × trace) fans out as one batch.
	nonTargets, err := t.Validator.measureGrid(ctx, []ssdconf.Config{cfg}, t.Validator.NonTargetClusters(target))
	if err != nil {
		return e, false, err
	}
	t.scoreFull(&e, nonTargets[0])
	return e, false, nil
}

// scoreTarget scores cfg's target-cluster measurements. ok is false
// when the power budget (§3.4) rejects the configuration; the rejection
// is counted in res.
func (t *Tuner) scoreTarget(target string, cfg ssdconf.Config, perfs []autodb.Perf, res *TuneResult) (e entry, ok bool) {
	e = entry{cfg: cfg, vec: t.Space.Vector(cfg)}
	if t.overPowerBudget(perfs) {
		res.RejectedByPower++
		return e, false
	}
	e.targetPerf = t.Grader.ClusterPerformance(target, perfs)
	e.latSp, e.tputSp = t.Grader.ClusterSpeedups(target, perfs)
	e.power = meanPower(perfs)
	e.lifetimeNS = minLifetimeNS(perfs)
	return e, true
}

// scoreFull completes e's grade (Formula 2) from its measurements on
// every non-target cluster.
func (t *Tuner) scoreFull(e *entry, nonTargets map[string][]autodb.Perf) {
	nonTarget := make(map[string]float64, len(nonTargets))
	for cl, ps := range nonTargets {
		nonTarget[cl] = t.Grader.ClusterPerformance(cl, ps)
	}
	e.grade = t.Grader.Grade(e.targetPerf, nonTarget, len(t.Validator.Workloads))
	e.full = true
}

// overPowerBudget reports whether any target-cluster measurement exceeds
// the constraint set's power budget (0 disables the check).
func (t *Tuner) overPowerBudget(perfs []autodb.Perf) bool {
	budget := t.Space.Cons.PowerBudgetWatts
	if budget <= 0 {
		return false
	}
	for _, p := range perfs {
		if p.PowerWatts > budget {
			return true
		}
	}
	return false
}

// searchRoots returns the indices of this iteration's search roots.
// Scalar mode walks from one random member of the top-K grades (random
// within the top three prevents premature convergence, §3.4): the
// one-root case of the population walk. Pareto mode advances EVERY
// retained front lineage, capped at TopK — NSGA-style population
// advance, ordered by crowding distance so the extremes go first —
// because a single random root starves minority trade-off regions (a
// durable-but-slower lineage never picks up the wear-neutral
// performance knobs the grade-leading lineage found).
func (t *Tuner) searchRoots(validated []entry) []int {
	if !t.pareto() {
		idx := topKIndices(validated, TopK)
		return []int{idx[t.rng.Intn(len(idx))]}
	}
	roots := frontIndices(t.Space.Objectives, validated)
	if len(roots) > TopK {
		roots = roots[:TopK]
	}
	return roots
}

// searchScores maps the validated set onto the surrogate's regression
// targets: the grades themselves in scalar mode, a per-iteration
// weighted scalarization of the normalized objective vectors in Pareto
// mode (so successive iterations pull toward different front regions).
func (t *Tuner) searchScores(validated []entry, iter int) []float64 {
	if t.pareto() {
		return scalarizedScores(t.Space.Objectives, validated, iter)
	}
	ys := make([]float64, len(validated))
	for i, e := range validated {
		ys[i] = e.grade
	}
	return ys
}

// sgdSearch walks the discrete configuration grid from root, using the
// GPR surrogate to score candidates, until the step budget or the
// Manhattan exploration bound is hit. It returns an unvalidated
// configuration to validate next, or nil when the neighborhood is
// exhausted.
func (t *Tuner) sgdSearch(root entry, rootScore float64, ys []float64, validated []entry, seen map[string]bool, iter int) ssdconf.Config {
	gp := t.fitGPR(validated, ys)

	cur := root.cfg
	curScore := rootScore
	var fallback ssdconf.Config
	fallbackScore := math.Inf(-1)

	for step := 0; step < t.Opts.SGDSteps; step++ {
		cands := t.candidates(cur, iter*t.Opts.SGDSteps+step)
		if len(cands) == 0 {
			break
		}
		// Shuffle so GPR-score ties (unexplored axes all look alike)
		// resolve to a random axis instead of the first parameter.
		t.rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
		var best ssdconf.Config
		bestScore := math.Inf(-1)
		for _, c := range cands {
			if t.minManhattan(c, validated) > t.Opts.ManhattanLimit {
				continue // exploration bound (§3.4)
			}
			score := t.predict(gp, c)
			if !seen[c.Key()] && score > fallbackScore {
				fallback, fallbackScore = c, score
			}
			if score > bestScore {
				best, bestScore = c, score
			}
		}
		if best == nil {
			break
		}
		if bestScore <= curScore {
			break // local optimum under the surrogate
		}
		cur, curScore = best, bestScore
	}

	if !seen[cur.Key()] && !ssdconf.Equal(cur, root.cfg) {
		return cur
	}
	return fallback
}

// candidates returns the neighbor set for one SGD step: the full
// neighborhood, or — with the §3.3 tuning order — the neighborhood along
// the most important not-yet-exhausted axes.
func (t *Tuner) candidates(cur ssdconf.Config, step int) []ssdconf.Config {
	if !t.Opts.UseTuningOrder || len(t.orderIdx) == 0 {
		return t.Space.Neighbors(cur)
	}
	// Walk the ranked axes starting at the step's offset so successive
	// steps favor the highest-|coefficient| parameters first.
	var out []ssdconf.Config
	for k := 0; k < len(t.orderIdx) && len(out) == 0; k++ {
		axis := t.orderIdx[(step+k)%len(t.orderIdx)]
		out = t.Space.NeighborsOf(cur, axis)
	}
	return out
}

func (t *Tuner) minManhattan(c ssdconf.Config, validated []entry) int {
	min := math.MaxInt32
	for _, e := range validated {
		if d := ssdconf.ManhattanDistance(t.Space, c, e.cfg); d < min {
			min = d
		}
	}
	return min
}

// fitGPR fits the surrogate on the validated set against the given
// regression targets; nil when there are too few points (prediction then
// falls back to optimism-free exploration).
func (t *Tuner) fitGPR(validated []entry, ys []float64) *gpr.GP {
	if len(validated) < 2 {
		return nil
	}
	x := make([][]float64, len(validated))
	y := make([]float64, len(validated))
	for i, e := range validated {
		x[i] = e.vec
		y[i] = ys[i]
	}
	gp := gpr.New(nil)
	gp.OptimizeHyperparams = len(validated) >= 6 && len(validated)%4 == 0
	if err := gp.Fit(x, y); err != nil {
		return nil
	}
	return gp
}

func (t *Tuner) predict(gp *gpr.GP, c ssdconf.Config) float64 {
	if gp == nil {
		// Explore arbitrarily before the model exists. The noise is
		// derived per candidate — hash(base seed, config key) — rather
		// than drawn from the shared RNG stream, so a candidate's score
		// is a pure function of (seed, candidate): independent of
		// evaluation order and of how many workers the validator fans
		// simulations over (serial ≡ parallel determinism).
		return t.explorationNoise(c)
	}
	m, s, err := gp.Predict([][]float64{t.Space.Vector(c)})
	if err != nil {
		return math.Inf(-1)
	}
	// UCB: the paper notes BO "quantifies the exploration trade-offs
	// with predicted mean and variance values".
	return m[0] + 0.5*s[0]
}

// explorationNoise maps (seed, config key) to a deterministic tie-break
// score in [0, 1e-6) via FNV-1a — the per-candidate derived-seed rule.
func (t *Tuner) explorationNoise(c ssdconf.Config) float64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(t.Opts.Seed))
	h.Write(b[:])
	h.Write([]byte(c.Key()))
	// Top 53 bits → uniform float64 in [0, 1), scaled down.
	return float64(h.Sum64()>>11) / (1 << 53) * 1e-6
}

func (t *Tuner) converged(traj []float64) bool {
	w := t.Opts.ConvergenceWindow
	if len(traj) <= w {
		return false
	}
	recent := traj[len(traj)-w-1:]
	base := math.Abs(recent[0])
	if base < 1e-9 {
		base = 1e-9
	}
	for i := 1; i < len(recent); i++ {
		if math.Abs(recent[i]-recent[0])/base > convergenceBound {
			return false
		}
	}
	return true
}

func bestGrade(validated []entry) float64 {
	return bestEntry(validated).grade
}

func bestEntry(validated []entry) entry {
	best := validated[0]
	for _, e := range validated[1:] {
		if e.grade > best.grade {
			best = e
		}
	}
	return best
}

func worstRetainedGrade(validated []entry, k int) float64 {
	idx := topKIndices(validated, k)
	worst := math.Inf(1)
	for _, i := range idx {
		if validated[i].grade < worst {
			worst = validated[i].grade
		}
	}
	if math.IsInf(worst, 1) {
		return math.Inf(-1)
	}
	return worst
}

// ClusterSpeedups returns the geometric-mean latency and throughput
// speedups of a cluster's measurements against the grader's reference.
func (g *Grader) ClusterSpeedups(cluster string, perfs []autodb.Perf) (lat, tput float64) {
	refs := g.Ref[cluster]
	var latLog, tputLog float64
	for i, p := range perfs {
		l, tp := Speedups(p, refs[i])
		latLog += math.Log(l)
		tputLog += math.Log(tp)
	}
	n := float64(len(perfs))
	return math.Exp(latLog / n), math.Exp(tputLog / n)
}

func topKIndices(validated []entry, k int) []int {
	idx := make([]int, len(validated))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return validated[idx[a]].grade > validated[idx[b]].grade
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
