// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the Go reproduction: the workload-clustering
// scatter (Fig. 2), the pruning studies (Figs. 4–5), the learned-
// configuration matrices (Tables 1, 4, 8, 9), critical parameters
// (Table 5), overhead breakdown (Table 6), what-if analysis (Table 7),
// energy (Fig. 7), learning time (Fig. 8), the tuning-order ablation
// (Figs. 9–10) and the α/β sensitivity studies (Figs. 11–12).
//
// Experiments are exposed as functions over a shared Env so that both
// the cmd/experiments binary and the root bench_test.go reuse one
// simulator cache. Results are deterministic for a fixed Scale.Seed.
package experiments

import (
	"context"
	"fmt"
	"time"

	"autoblox/internal/core"
	"autoblox/internal/dist"
	"autoblox/internal/obs"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

// Scale sets the experiment size. The paper runs multi-hour traces and
// ~89 search iterations per target on a 24-core Xeon; DefaultScale
// shrinks traces and iteration budgets so the full suite reproduces the
// *shapes* in minutes. PaperScale approaches the paper's settings.
type Scale struct {
	Requests      int   // trace length per workload
	MaxIterations int   // tuner outer iterations
	SGDSteps      int   // SGD steps per iteration
	PruneSamples  int   // fine-pruning sample count
	Seed          int64 // global seed
	Parallel      int   // validation workers (0 = GOMAXPROCS)
	// Obs, when set, receives validator/simulator metrics. Optional and
	// free when nil; never affects the measured results.
	Obs *obs.Registry
	// SimTimeout bounds each individual validation simulation (0 =
	// unbounded).
	SimTimeout time.Duration
	// Checkpoint/Resume make the matrix tuning runs crash-safe: the
	// per-target checkpoint path is derived from Checkpoint by suffixing
	// the target name.
	Checkpoint string
	Resume     bool
	// Ctx, when set, cancels every measurement the suite issues (nil =
	// context.Background()); it is copied onto each Env the suite builds.
	Ctx context.Context
	// Objectives selects the tuning objective axes for every tuning run
	// the suite issues. The zero spec is scalar mode, byte-identical to
	// the historical single-grade experiments; a multi-axis spec
	// switches the matrix/tuning experiments to Pareto-front search.
	Objectives ssdconf.ObjectiveSpec
	// Backend, when set together with BackendEnv, routes validation
	// simulations through a distributed fleet. Each Env adopts the
	// backend only when BackendEnv covers its configuration (same space
	// fingerprint, a workload spec for every cluster at the run's
	// requests/seed); environments the fleet cannot reproduce — what-if
	// bounds, altered constraint sets — keep the local pool, so mixed
	// suites run correctly with only the matching envs distributed.
	Backend    core.Backend
	BackendEnv *dist.Env
	// Persist, when set, is consulted before (and written after) every
	// validation simulation — the crash-safe cache that carries measured
	// results across process restarts (see core.PersistentCache).
	Persist *core.PersistentCache
}

// DefaultScale is sized for CI and benchmarks.
func DefaultScale() Scale {
	return Scale{Requests: 6000, MaxIterations: 12, SGDSteps: 4, PruneSamples: 36, Seed: 42}
}

// PaperScale approaches the paper's experimental scale (slow: hours).
func PaperScale() Scale {
	return Scale{Requests: 60000, MaxIterations: 89, SGDSteps: 10, PruneSamples: 128, Seed: 42}
}

// Env bundles the shared state of one experimental configuration
// (constraint set + reference device + workload set).
type Env struct {
	Scale Scale
	// Ctx, when set, cancels every measurement the experiments issue;
	// nil means context.Background().
	Ctx       context.Context
	Space     *ssdconf.Space
	RefCfg    ssdconf.Config
	Validator *core.Validator
	Grader    *core.Grader
	Cats      []workload.Category
	// Sources holds one streaming generator factory per category. A
	// validator derives each trace once, on its first simulation, and
	// replays that copy; nothing else materializes a workload trace.
	Sources map[string]trace.SourceFactory
}

// NewEnv builds an environment: generates one trace per category,
// measures the reference configuration everywhere.
func NewEnv(scale Scale, cons ssdconf.Constraints, ref ssd.DeviceParams, cats []workload.Category) (*Env, error) {
	return newEnv(scale, cons, ref, cats, false)
}

// NewWhatIfEnv is NewEnv over the expanded §4.5 bounds.
func NewWhatIfEnv(scale Scale, cons ssdconf.Constraints, ref ssd.DeviceParams, cats []workload.Category) (*Env, error) {
	return newEnv(scale, cons, ref, cats, true)
}

func newEnv(scale Scale, cons ssdconf.Constraints, ref ssd.DeviceParams, cats []workload.Category, whatIf bool) (*Env, error) {
	var space *ssdconf.Space
	if whatIf {
		space = ssdconf.NewWhatIfSpace(cons)
	} else {
		space = ssdconf.NewSpace(cons)
	}
	space.Objectives = scale.Objectives
	e := &Env{Scale: scale, Ctx: scale.Ctx, Space: space, Cats: cats,
		Sources: map[string]trace.SourceFactory{}}
	for _, c := range cats {
		fac, err := workload.Factory(c, workload.Options{Requests: scale.Requests, Seed: scale.Seed})
		if err != nil {
			return nil, err
		}
		e.Sources[string(c)] = fac
	}
	e.RefCfg = space.FromDevice(ref)
	if err := space.CheckConstraints(e.RefCfg); err != nil {
		return nil, fmt.Errorf("experiments: reference violates constraints: %w", err)
	}
	e.Validator = e.coldValidator(scale.Parallel)
	e.Validator.Persist = scale.Persist
	if scale.Backend != nil && scale.BackendEnv != nil {
		clusters := make([]string, len(cats))
		for i, c := range cats {
			clusters[i] = string(c)
		}
		if scale.BackendEnv.Covers(space, clusters, scale.Requests, scale.Seed) {
			e.Validator.Backend = scale.Backend
		}
	}
	g, err := core.NewGrader(e.ctx(), e.Validator, e.RefCfg, core.DefaultAlpha, core.DefaultBeta)
	if err != nil {
		return nil, err
	}
	e.Grader = g
	return e, nil
}

// sourceGroups adapts the per-category factories to the validator's
// one-trace-per-cluster shape.
func (e *Env) sourceGroups() map[string][]trace.SourceFactory {
	g := make(map[string][]trace.SourceFactory, len(e.Sources))
	for k, f := range e.Sources {
		g[k] = []trace.SourceFactory{f}
	}
	return g
}

// coldValidator builds a validator over the environment's traces with
// the scale's metrics registry and per-simulation timeout, and nothing
// cached: no persistent cache and no fleet backend.
func (e *Env) coldValidator(parallel int) *core.Validator {
	v := core.NewValidatorSources(e.Space, e.sourceGroups())
	v.Parallel = parallel
	v.Obs = e.Scale.Obs
	v.SimTimeout = e.Scale.SimTimeout
	return v
}

// ctx resolves the experiment context.
func (e *Env) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// tunerOptions maps the scale onto the §3.4 loop.
func (e *Env) tunerOptions() core.TunerOptions {
	return core.TunerOptions{
		Seed:          e.Scale.Seed,
		MaxIterations: e.Scale.MaxIterations,
		SGDSteps:      e.Scale.SGDSteps,
		Resume:        e.Scale.Resume,
	}
}

// checkpointFor derives a per-target checkpoint path; tuning runs over
// different targets must not share one checkpoint file.
func (e *Env) checkpointFor(target string) string {
	if e.Scale.Checkpoint == "" {
		return ""
	}
	return e.Scale.Checkpoint + "." + target + ".json"
}

// InitialConfigs returns the reference plus layout-diverse variants of
// it (repaired to the capacity band). The paper initializes the model
// with several commodity configurations; seeding layout diversity gives
// the GPR surrogate gradient information along the chip-layout axes from
// the first iteration.
func (e *Env) InitialConfigs() []ssdconf.Config {
	out := []ssdconf.Config{e.RefCfg}
	for _, mutate := range []map[string]float64{
		{"FlashChannelCount": 32, "ChipNoPerChannel": 2},
		{"PlaneNoPerDie": 8, "DieNoPerChip": 2},
		{"DataCacheSize": 416, "CMTCapacity": 384},
	} {
		cfg := e.RefCfg.Clone()
		for name, v := range mutate {
			if err := e.Space.SetByName(cfg, name, v); err != nil {
				continue
			}
		}
		if !e.Space.RepairCapacity(cfg) {
			continue
		}
		if e.Space.CheckConstraints(cfg) != nil {
			continue
		}
		out = append(out, cfg)
	}
	return out
}
