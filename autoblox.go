// Package autoblox is a from-scratch Go implementation of AutoBlox
// ("Learning to Drive Software-Defined Solid-State Drives", MICRO 2023):
// an automated, learning-based SSD hardware-configuration framework.
//
// Given block I/O traces of a target workload and a set of hardware
// constraints (capacity, host interface, flash type, power budget),
// AutoBlox recommends an optimized SSD configuration:
//
//	fw, _ := autoblox.New(autoblox.DefaultConstraints(), autoblox.Options{DBPath: "autoblox.db"})
//	defer fw.Close()
//	fw.LearnWorkloads(trainingTraces)             // PCA + k-means clustering (§3.1)
//	rec, _ := fw.Recommend(newTrace)              // cached lookup or full BO tuning (§3.4)
//	fmt.Println(rec.Device.Channels, rec.Grade)
//
// The package re-exports the pieces a downstream user needs — the
// configuration space, the discrete-event SSD simulator, the synthetic
// workload generators and the tuning engine — while the heavy lifting
// lives in internal/ packages.
package autoblox

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/core"
	"autoblox/internal/obs"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
)

// Re-exported types: the public API surface for downstream users.
type (
	// Constraints is the set_cons(capacity, interface, flash_type,
	// power_budget) tuple of §3.5.
	Constraints = ssdconf.Constraints
	// Config is a point in the 52-parameter configuration space.
	Config = ssdconf.Config
	// Space is the tunable parameter space under constraints.
	Space = ssdconf.Space
	// DeviceParams is a fully resolved simulator configuration.
	DeviceParams = ssd.DeviceParams
	// SimResult carries measured performance and energy.
	SimResult = ssd.Result
	// Trace is a block I/O trace.
	Trace = trace.Trace
	// Source is a rewindable streaming cursor over a request sequence —
	// the constant-memory alternative to a materialized Trace.
	Source = trace.Source
	// SourceFactory produces independent streaming cursors over the same
	// request sequence (one per parallel simulation).
	SourceFactory = trace.SourceFactory
	// TuneResult reports a tuning run.
	TuneResult = core.TuneResult
	// TunerOptions tunes the §3.4 search loop.
	TunerOptions = core.TunerOptions
	// WhatIfGoal is a §4.5 performance target.
	WhatIfGoal = core.WhatIfGoal
	// WhatIfResult reports a what-if exploration.
	WhatIfResult = core.WhatIfResult
	// ObjectiveSpec declares the tuning objective axes (scalar grade, or
	// a Pareto vector over perf/power/lifetime).
	ObjectiveSpec = ssdconf.ObjectiveSpec
	// FrontPoint is one non-dominated configuration on a Pareto front.
	FrontPoint = core.FrontPoint
	// Assignment is a workload-clustering verdict.
	Assignment = core.Assignment
	// PruneOptions controls §3.3 parameter pruning.
	PruneOptions = core.PruneOptions
	// Backend executes validation measurements (in-process pool or a
	// distributed fleet; see internal/dist).
	Backend = core.Backend
)

// DefaultConstraints returns the paper's §4.2 setting: 512GB, NVMe, MLC.
func DefaultConstraints() Constraints { return ssdconf.DefaultConstraints() }

// ParseObjectives parses a comma-separated objective axis list such as
// "perf,power,lifetime" into an ObjectiveSpec. The empty string yields
// the scalar (single-grade) spec.
func ParseObjectives(s string) (ObjectiveSpec, error) { return ssdconf.ParseObjectiveSpec(s) }

// Baseline commodity configurations used as references in the paper.
var (
	Intel750      = ssd.Intel750
	Samsung850Pro = ssd.Samsung850Pro
	SamsungZSSD   = ssd.SamsungZSSD
)

// ErrInterrupted marks a tuning run stopped by context cancellation;
// with Options.Checkpoint set, the run can be resumed bit-identically.
var ErrInterrupted = core.ErrInterrupted

// Options configures a Framework.
type Options struct {
	// DBPath locates the AutoDB log file (default "autoblox.db").
	DBPath string
	// Alpha and Beta are the Formula 1/2 coefficients (defaults 0.5, 0.1).
	Alpha, Beta float64
	// Seed drives all stochastic components.
	Seed int64
	// Reference is the commodity baseline; zero value selects Intel 750.
	Reference DeviceParams
	// Tuner carries the search-loop knobs; zero values pick the paper's
	// defaults.
	Tuner TunerOptions
	// NewCategoryAfter is the number of outlier workloads (novel traces
	// nearest to the same cluster) after which AutoBlox creates a new
	// category and retrains the clustering with one more cluster (§3.1;
	// paper default 20). Values <1 select the paper default.
	NewCategoryAfter int
	// Parallel bounds concurrent validation simulations (0 selects
	// runtime.GOMAXPROCS(0)). Results are identical at any setting.
	Parallel int
	// Backend, when set, routes every validation simulation through a
	// custom measurement backend — e.g. a dist.Fleet coordinator
	// sharding simulations across worker processes. nil selects the
	// in-process pool bounded by Parallel. Backends are required to be
	// deterministic, so results are bit-identical either way.
	Backend Backend
	// WhatIfSpace switches the expanded §4.5 bounds on.
	WhatIfSpace bool
	// Objectives selects the tuning objective axes. The zero spec is
	// scalar mode — byte-identical to the historical single-grade
	// tuner. A multi-axis spec (e.g. perf,power,lifetime) switches
	// every tuning run to Pareto-front search; the spec is folded into
	// the space signature, so checkpoints and distributed fleets from a
	// different spec are rejected.
	Objectives ObjectiveSpec
	// Metrics, when set, receives counters and latency histograms from
	// the validator and every simulation it runs. nil disables metric
	// collection at zero cost. Instrumentation never perturbs results:
	// runs with and without a registry are bit-for-bit identical.
	Metrics *obs.Registry
	// SimTimeout bounds each individual validation simulation; 0 means
	// unbounded. A timed-out measurement fails the run (it is never
	// cached or retried — simulation time is deterministic).
	SimTimeout time.Duration
	// Checkpoint, when set, makes tuning runs (TuneContext, and the
	// tune a Recommend triggers) crash-safe: the tuner atomically
	// rewrites this JSON file after every iteration. What-if runs are
	// not checkpointed.
	Checkpoint string
	// Resume restores tuner state from Checkpoint (when the file
	// exists) before tuning, skipping all completed work.
	Resume bool
	// CacheDir, when set, enables the crash-safe persistent simulation
	// cache: every successful (configuration, trace) measurement is
	// durably recorded under this directory and served on later runs —
	// across process restarts and kill -9 — without re-simulating. Keys
	// embed the space signature, so a changed space silently invalidates
	// old entries instead of serving stale results.
	CacheDir string
}

// Framework is the top-level AutoBlox object tying together the
// clustering model, the configuration database, the validator and the
// tuner.
type Framework struct {
	Space     *Space
	DB        *autodb.DB
	Clusterer *core.Clusterer

	opts      Options
	validator *core.Validator
	persist   *core.PersistentCache
	grader    *core.Grader
	refCfg    Config
	sources   map[string]SourceFactory // cluster label -> representative stream
	orders    map[string][]string      // cached §3.3 tuning orders per target
	outliers  map[string]int           // nearest-label -> novel-trace count (§3.1)
}

// New opens (or creates) a framework under the given constraints.
func New(cons Constraints, opts Options) (*Framework, error) {
	if opts.DBPath == "" {
		opts.DBPath = "autoblox.db"
	}
	if opts.Alpha == 0 {
		opts.Alpha = core.DefaultAlpha
	}
	if opts.Beta == 0 {
		opts.Beta = core.DefaultBeta
	}
	if opts.Reference.Channels == 0 {
		opts.Reference = ssd.Intel750()
	}
	var space *Space
	if opts.WhatIfSpace {
		space = ssdconf.NewWhatIfSpace(cons)
	} else {
		space = ssdconf.NewSpace(cons)
	}
	space.Objectives = opts.Objectives
	db, err := autodb.Open(opts.DBPath)
	if err != nil {
		return nil, err
	}
	if opts.NewCategoryAfter < 1 {
		opts.NewCategoryAfter = 20 // paper §3.1 default
	}
	f := &Framework{
		Space: space, DB: db, opts: opts,
		sources:  map[string]SourceFactory{},
		orders:   map[string][]string{},
		outliers: map[string]int{},
	}
	f.refCfg = space.FromDevice(opts.Reference)

	if opts.CacheDir != "" {
		p, err := core.OpenPersistentCache(opts.CacheDir, opts.Metrics)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("autoblox: open persistent cache: %w", err)
		}
		f.persist = p
	}

	// Restore a previously learned clustering model, if any.
	if blob, ok, err := db.LoadModel(); err == nil && ok {
		if c, err := core.UnmarshalClusterer(blob); err == nil {
			f.Clusterer = c
		}
	}
	return f, nil
}

// Close releases the configuration database and the persistent
// simulation cache (when one was opened).
func (f *Framework) Close() error {
	perr := f.persist.Close()
	if err := f.DB.Close(); err != nil {
		return err
	}
	return perr
}

// PersistentCacheStats reports the persistent simulation cache's
// hit/miss/corrupt counters; zero values without Options.CacheDir.
func (f *Framework) PersistentCacheStats() core.PersistentCacheStats {
	return f.persist.Stats()
}

// ReferenceConfig returns the grid-snapped commodity reference.
func (f *Framework) ReferenceConfig() Config { return f.refCfg.Clone() }

// SetProgress installs a per-iteration callback for subsequent tuning
// runs (CLI progress reporting).
func (f *Framework) SetProgress(fn func(iteration int, bestGrade float64)) {
	f.opts.Tuner.OnIteration = fn
}

// SetCheckpointHook installs a callback invoked after every successful
// checkpoint write with the checkpoint path (live freshness reporting).
func (f *Framework) SetCheckpointHook(fn func(path string)) {
	f.opts.Tuner.OnCheckpoint = fn
}

// SetFrontProgress installs a per-iteration Pareto-front callback
// (front size + normalized hypervolume) for subsequent tuning runs.
// Scalar-mode runs never invoke it.
func (f *Framework) SetFrontProgress(fn func(size int, hypervolume float64)) {
	f.opts.Tuner.OnFront = fn
}

// LearnWorkloads trains the §3.1 clustering model on one representative
// trace per workload category and persists it to AutoDB. The traces also
// become the per-cluster representatives used in non-target validation.
// Callers holding generator- or file-backed streams should prefer
// LearnWorkloadSources, which never materializes the traces.
func (f *Framework) LearnWorkloads(traces []*Trace) error {
	factories := make([]SourceFactory, len(traces))
	for i, tr := range traces {
		factories[i] = tr.Factory()
	}
	return f.LearnWorkloadSources(factories)
}

// LearnWorkloadSources is LearnWorkloads over streaming source
// factories: each training stream is consumed in one windowed pass for
// clustering, and the validator derives it once more, on its first
// simulation, and holds that one copy for validation.
func (f *Framework) LearnWorkloadSources(factories []SourceFactory) error {
	srcs := make([]trace.Source, len(factories))
	for i, fac := range factories {
		srcs[i] = fac()
	}
	c, err := core.TrainClustererSources(srcs, core.ClustererConfig{
		Seed: f.opts.Seed, AutoAdjustThreshold: true,
	})
	if err != nil {
		return err
	}
	f.Clusterer = c
	for i, fac := range factories {
		f.sources[srcs[i].Name()] = fac
	}
	f.validator = nil // rebuilt lazily against the new trace set
	if blob, err := c.Marshal(); err == nil {
		if err := f.DB.SaveModel(blob); err != nil {
			return fmt.Errorf("autoblox: persist model: %w", err)
		}
	}
	return nil
}

// Workloads lists the learned cluster labels.
func (f *Framework) Workloads() []string {
	out := make([]string, 0, len(f.sources))
	for k := range f.sources {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// ensureEnv lazily builds the validator and grader over the learned
// traces.
func (f *Framework) ensureEnv(ctx context.Context) error {
	if f.validator != nil {
		return nil
	}
	if len(f.sources) == 0 {
		return errors.New("autoblox: LearnWorkloads must run before tuning")
	}
	groups := make(map[string][]SourceFactory, len(f.sources))
	for k, fac := range f.sources {
		groups[k] = []SourceFactory{fac}
	}
	f.validator = core.NewValidatorSources(f.Space, groups)
	f.validator.Parallel = f.opts.Parallel
	f.validator.Backend = f.opts.Backend
	f.validator.Obs = f.opts.Metrics
	f.validator.SimTimeout = f.opts.SimTimeout
	f.validator.Persist = f.persist
	g, err := core.NewGrader(ctx, f.validator, f.refCfg, f.opts.Alpha, f.opts.Beta)
	if err != nil {
		return err
	}
	f.grader = g
	return nil
}

// Recommendation is the outcome of Recommend.
type Recommendation struct {
	Assignment Assignment
	// FromCache is true when AutoDB already held a configuration for the
	// workload's cluster and no tuning ran.
	FromCache bool
	Config    Config
	Device    DeviceParams
	Grade     float64
	// Tune holds the tuning run's details when tuning was needed.
	Tune *TuneResult
}

// Recommend implements the paper's end-to-end workflow (Fig. 3): extract
// the new workload's features, map it to a cluster, serve a learned
// configuration from AutoDB when one exists, and otherwise learn a new
// configuration and store it.
func (f *Framework) Recommend(tr *Trace) (*Recommendation, error) {
	return f.RecommendContext(context.Background(), tr)
}

// RecommendContext is Recommend with cooperative cancellation: ctx
// aborts any tuning run the recommendation triggers.
func (f *Framework) RecommendContext(ctx context.Context, tr *Trace) (*Recommendation, error) {
	if f.Clusterer == nil {
		return nil, errors.New("autoblox: LearnWorkloads must run before Recommend")
	}
	a, err := f.Clusterer.Assign(tr)
	if err != nil {
		return nil, err
	}
	rec := &Recommendation{Assignment: a}

	clusterID := a.Cluster
	newCategory := false
	if a.IsNew {
		// Workload outlier (§3.1): tolerate outliers of an existing
		// category until NewCategoryAfter of them accumulate, then form
		// a new category — retraining the k-means model with one more
		// cluster when the training windows are available.
		f.outliers[a.Label]++
		if f.outliers[a.Label] >= f.opts.NewCategoryAfter {
			newCategory = true
			f.outliers[a.Label] = 0
			if retrained, err := f.Clusterer.AddWorkload(tr, f.opts.Seed); err == nil {
				f.Clusterer = retrained
				if blob, err := retrained.Marshal(); err == nil {
					_ = f.DB.SaveModel(blob) // best-effort persistence
				}
			}
			n, err := f.DB.NumClusters()
			if err != nil {
				return nil, err
			}
			clusterID = f.Clusterer.KMeans.K() + n
		}
	}

	if stored, err := f.DB.BestConfigs(clusterID, 1); err == nil && len(stored) > 0 && !newCategory {
		rec.FromCache = true
		rec.Config = stored[0].Config
		rec.Grade = stored[0].Grade
		rec.Device = f.Space.ToDevice(stored[0].Config)
		return rec, nil
	}

	// Learn a new configuration with the trace itself as the target.
	target := a.Label
	if newCategory {
		target = tr.Name
		f.sources[target] = tr.Factory()
		f.validator = nil
	}
	res, err := f.TuneContext(ctx, target)
	if err != nil {
		return nil, err
	}
	rec.Config = res.Best
	rec.Grade = res.BestGrade
	rec.Device = f.Space.ToDevice(res.Best)
	rec.Tune = res

	sc := autodb.StoredConfig{Config: res.Best, Grade: res.BestGrade,
		Perf: map[string]autodb.Perf{}}
	for cl, ps := range res.BestPerf {
		for i, p := range ps {
			sc.Perf[fmt.Sprintf("%s#%d", cl, i)] = p
		}
	}
	if err := f.DB.AddConfig(clusterID, target, sc); err != nil {
		return nil, err
	}
	return rec, nil
}

// Tune learns an optimized configuration for a known cluster label.
func (f *Framework) Tune(target string) (*TuneResult, error) {
	return f.TuneContext(context.Background(), target)
}

// TuneContext is Tune with cooperative cancellation and (via
// Options.Checkpoint/Resume) crash-safe, resumable search: cancelling
// ctx stops the run with core.ErrInterrupted, leaving the checkpoint of
// the last completed iteration on disk.
func (f *Framework) TuneContext(ctx context.Context, target string) (*TuneResult, error) {
	if err := f.ensureEnv(ctx); err != nil {
		return nil, err
	}
	opts := f.opts.Tuner
	opts.Seed = f.opts.Seed
	opts.Checkpoint, opts.Resume = f.opts.Checkpoint, f.opts.Resume
	// The full pipeline enforces the §3.3 tuning order; compute and
	// cache it per target (fine-grained pruning, Fig. 5).
	if !opts.UseTuningOrder {
		order, ok := f.orders[target]
		if !ok {
			// Reuse a previously persisted order for this cluster, else
			// learn one with fine-grained pruning and persist it.
			clusterID := -1
			if f.Clusterer != nil {
				clusterID = f.Clusterer.ClusterOf(target)
			}
			if clusterID >= 0 {
				if stored, found, err := f.DB.GetOrder(clusterID); err == nil && found {
					order, ok = stored, true
				}
			}
			if !ok {
				fine, err := core.FinePrune(ctx, f.validator, f.grader, target, f.refCfg, nil,
					core.PruneOptions{Seed: f.opts.Seed})
				if err == nil {
					order = fine.Order
					if clusterID >= 0 {
						_ = f.DB.PutOrder(clusterID, order) // best-effort persistence
					}
				}
			}
			f.orders[target] = order
		}
		if len(order) > 0 {
			opts.UseTuningOrder = true
			opts.Order = order
		}
	}
	t, err := core.NewTuner(f.Space, f.validator, f.grader, opts)
	if err != nil {
		return nil, err
	}
	initial := []Config{f.refCfg}
	// Seed the model with previously learned configurations (①).
	if f.Clusterer != nil {
		if id := f.Clusterer.ClusterOf(target); id >= 0 {
			if stored, err := f.DB.BestConfigs(id, core.TopK); err == nil {
				for _, sc := range stored {
					if len(sc.Config) == len(f.refCfg) {
						initial = append(initial, sc.Config)
					}
				}
			}
		}
	}
	return t.Tune(ctx, target, initial)
}

// Prune runs the §3.3 two-stage parameter pruning for a target cluster.
func (f *Framework) Prune(target string, opts PruneOptions) (*core.CoarseResult, *core.FineResult, error) {
	return f.PruneContext(context.Background(), target, opts)
}

// PruneContext is Prune with cooperative cancellation.
func (f *Framework) PruneContext(ctx context.Context, target string, opts PruneOptions) (*core.CoarseResult, *core.FineResult, error) {
	if err := f.ensureEnv(ctx); err != nil {
		return nil, nil, err
	}
	coarse, err := core.CoarsePrune(ctx, f.validator, f.grader, target, f.refCfg, opts)
	if err != nil {
		return nil, nil, err
	}
	fine, err := core.FinePrune(ctx, f.validator, f.grader, target, f.refCfg, coarse.Insensitive, opts)
	if err != nil {
		return coarse, nil, err
	}
	return coarse, fine, nil
}

// WhatIf runs the §4.5 analysis against a performance goal. The
// framework should have been built with Options.WhatIfSpace.
func (f *Framework) WhatIf(goal WhatIfGoal) (*WhatIfResult, error) {
	return f.WhatIfContext(context.Background(), goal)
}

// WhatIfContext is WhatIf with cooperative cancellation.
func (f *Framework) WhatIfContext(ctx context.Context, goal WhatIfGoal) (*WhatIfResult, error) {
	if err := f.ensureEnv(ctx); err != nil {
		return nil, err
	}
	opts := f.opts.Tuner
	opts.Seed = f.opts.Seed
	return core.WhatIf(ctx, f.Space, f.validator, f.grader, goal, []Config{f.refCfg}, opts)
}

// Simulate runs a streaming trace against an explicit device
// configuration without materializing it; per-run memory is O(device
// state), independent of trace length. ctx is polled every 1024
// requests inside the simulator. Pass tr.Source() to run a
// materialized *Trace.
func Simulate(ctx context.Context, dev DeviceParams, src Source) (*SimResult, error) {
	sim, err := ssd.NewSimulator(dev)
	if err != nil {
		return nil, err
	}
	return sim.RunSourceContext(ctx, src)
}

// DescribeConfig formats the Table 5 critical parameters of a
// configuration, plus the selected policies by their registry names.
func (f *Framework) DescribeConfig(cfg Config) string {
	names := []string{"CMTCapacity", "DataCacheSize", "FlashChannelCount", "ChipNoPerChannel",
		"DieNoPerChip", "PlaneNoPerDie", "BlockNoPerPlane", "PageNoPerBlock",
		"GCPolicy", "CachePolicy", "PlaneAllocationScheme"}
	out := ""
	for _, n := range names {
		i, err := f.Space.ParamIndex(n)
		if err != nil {
			continue
		}
		if out != "" {
			out += " "
		}
		p := &f.Space.Params[i]
		if p.Kind == ssdconf.Categorical && cfg[i] < len(p.Labels) {
			out += fmt.Sprintf("%s=%s", n, p.Labels[cfg[i]])
			continue
		}
		out += fmt.Sprintf("%s=%g", n, p.Values[cfg[i]])
	}
	return out
}
