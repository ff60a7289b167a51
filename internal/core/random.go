package core

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"autoblox/internal/ssdconf"
)

// RandomSearch is the black-box baseline the paper's BO formulation is
// motivated against (§3.2): it spends the same validation budget on
// uniformly sampled constraint-respecting configurations, with no
// surrogate model and no neighborhood structure. The ablation benchmark
// compares its best grade against the BO tuner's at equal budget.
func RandomSearch(ctx context.Context, space *ssdconf.Space, v *Validator, g *Grader, target string, initial []ssdconf.Config, opts TunerOptions) (*TuneResult, error) {
	opts.defaults()
	if _, ok := v.Workloads[target]; !ok {
		return nil, errors.New("core: unknown target workload " + target)
	}
	if len(initial) == 0 {
		return nil, errors.New("core: no initial configurations")
	}
	start := time.Now()
	simStart := freshMeasurements(v)
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x9e3779b9))

	// Reuse the tuner's frontier, evaluation path (grading, power budget,
	// validation pruning) and final report so only the *search policy*
	// differs.
	t := &Tuner{Space: space, Validator: v, Grader: g, Opts: opts}
	res := &TuneResult{Target: target}
	validated, err := t.frontier(ctx, target, initial, map[string]bool{}, res)
	if err != nil {
		return nil, err
	}

	for iter := 0; iter < opts.MaxIterations; iter++ {
		res.Iterations++
		cfg := randomValidConfig(space, rng)
		if cfg == nil {
			continue
		}
		worst := worstRetainedGrade(validated, TopK)
		e, rejected, err := t.evaluate(ctx, target, cfg, worst, res)
		if err != nil {
			return nil, err
		}
		if !rejected {
			validated = append(validated, e)
		}
		res.Trajectory = append(res.Trajectory, bestGrade(validated))
	}

	if err := t.report(ctx, validated, res, start, simStart); err != nil {
		return nil, err
	}
	return res, nil
}

// randomValidConfig samples uniform grid indices and repairs capacity;
// nil when the sample cannot be made valid.
func randomValidConfig(space *ssdconf.Space, rng *rand.Rand) ssdconf.Config {
	for attempt := 0; attempt < 16; attempt++ {
		cfg := make(ssdconf.Config, len(space.Params))
		for i, p := range space.Params {
			if !p.Tunable {
				continue // filled below by constraint application
			}
			cfg[i] = rng.Intn(len(p.Values))
		}
		space.ApplyConstraints(cfg)
		if !space.RepairCapacity(cfg) {
			continue
		}
		if space.CheckConstraints(cfg) == nil {
			return cfg
		}
	}
	return nil
}
