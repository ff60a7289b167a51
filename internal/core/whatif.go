package core

import (
	"context"
	"errors"
	"fmt"

	"autoblox/internal/ssdconf"
	"autoblox/internal/trace"
)

// WhatIfGoal is a §4.5 performance target: "reduce latency by 3×" or
// "improve throughput by 3×" for a target workload.
type WhatIfGoal struct {
	Target string
	// LatencyReduction is the desired reference/target latency ratio
	// (e.g., 3.0); zero means latency is unconstrained.
	LatencyReduction float64
	// ThroughputGain is the desired target/reference throughput ratio;
	// zero means throughput is unconstrained.
	ThroughputGain float64
}

func (g WhatIfGoal) validate() error {
	if g.Target == "" {
		return errors.New("core: what-if goal needs a target workload")
	}
	if g.LatencyReduction <= 0 && g.ThroughputGain <= 0 {
		return errors.New("core: what-if goal needs a latency or throughput target")
	}
	return nil
}

// WhatIfResult reports a what-if exploration. On a multi-objective
// space the embedded TuneResult.Front is the perf/power/lifetime
// trade-off curve: every non-dominated configuration the exploration
// found, best grade first.
type WhatIfResult struct {
	TuneResult
	Achieved bool
	// LatencySpeedup / ThroughputSpeedup are the best configuration's
	// target-cluster speedups over the reference.
	LatencySpeedup    float64
	ThroughputSpeedup float64
	// CriticalParams holds the learned values of the parameters Table 7
	// reports.
	CriticalParams map[string]float64
}

// Table7Params are the critical parameters the paper reports for the
// what-if analysis.
var Table7Params = []string{
	"DataCacheSize", "CMTCapacity", "ChannelWidth", "ChannelTransferRate",
	"PageReadLatency", "PageProgramLatency", "FlashChannelCount", "ChipNoPerChannel",
}

// WhatIf runs the what-if analysis: an expanded-bounds tuning run that
// stops as soon as the goal's speedups are met. The space should come
// from ssdconf.NewWhatIfSpace; the validator/grader must be built on it.
func WhatIf(ctx context.Context, space *ssdconf.Space, v *Validator, g *Grader, goal WhatIfGoal, initial []ssdconf.Config, opts TunerOptions) (*WhatIfResult, error) {
	// A multi-objective space turns WhatIf into a front explorer: the
	// speedup goal becomes optional (the deliverable is the trade-off
	// curve, not a single target), and when present it still stops the
	// search early.
	explore := !space.Objectives.Scalar()
	hasGoal := goal.LatencyReduction > 0 || goal.ThroughputGain > 0
	if err := goal.validate(); err != nil && !explore {
		return nil, err
	}
	if explore && goal.Target == "" {
		return nil, errors.New("core: what-if needs a target workload")
	}
	// Bias Formula 1 toward the constrained metric so the search climbs
	// the right hill.
	if opts.Alpha == 0 && hasGoal {
		switch {
		case goal.LatencyReduction > 0 && goal.ThroughputGain > 0:
			opts.Alpha = 0.5
		case goal.LatencyReduction > 0:
			opts.Alpha = 0.15
		default:
			opts.Alpha = 0.85
		}
	}
	if hasGoal {
		opts.StopCondition = func(lat, tput float64) bool {
			if goal.LatencyReduction > 0 && lat < goal.LatencyReduction {
				return false
			}
			if goal.ThroughputGain > 0 && tput < goal.ThroughputGain {
				return false
			}
			return true
		}
	}
	// What-if runs explore further from the commodity region.
	if opts.ManhattanLimit == 0 {
		opts.ManhattanLimit = 8
	}
	// A flat start must not trip the convergence rule before the search
	// has had a chance to find the expanded-bounds levers.
	if opts.ConvergenceWindow == 0 {
		opts.ConvergenceWindow = 12
	}

	// Throughput goals measure device *capability*: under timestamped
	// replay the throughput of an unsaturated device equals the offered
	// rate regardless of configuration, so a "3× throughput" target
	// would be unreachable by construction. Compressing the target
	// cluster's arrivals 20× saturates every candidate configuration and
	// makes the ratio meaningful (the reference is re-measured under the
	// same stress).
	if goal.ThroughputGain > 0 {
		groups := make(map[string][]trace.SourceFactory, len(v.Workloads))
		for cl, factories := range v.Workloads {
			if cl != goal.Target {
				groups[cl] = factories
				continue
			}
			compressed := make([]trace.SourceFactory, len(factories))
			for i, f := range factories {
				f := f
				compressed[i] = func() trace.Source { return trace.CompressStream(f(), 20) }
			}
			groups[cl] = compressed
		}
		stress := NewValidatorSources(v.Space, groups)
		// The rebuilt validator inherits the original's execution and
		// resilience settings, or a stress run would silently drop back to
		// serial, un-instrumented, timeout-free measurement. It must not
		// inherit Persist or Backend: the durable cache keys results by
		// trace name, so compressed-arrival results would be stored under
		// the uncompressed traces' names and poison later runs, and fleet
		// workers would regenerate the uncompressed traces.
		stress.Parallel = v.Parallel
		stress.Obs = v.Obs
		stress.SimTimeout = v.SimTimeout
		stress.MaxRetries = v.MaxRetries
		v = stress
		ng, err := NewGrader(ctx, v, initial[0], g.Alpha, g.Beta)
		if err != nil {
			return nil, fmt.Errorf("core: what-if stress grader: %w", err)
		}
		g = ng
	}

	if opts.Alpha == 0 {
		opts.Alpha = g.Alpha // goal-less exploration keeps the caller's balance
	}
	grader := *g
	grader.Alpha = opts.Alpha

	// Like the full pipeline, enforce the §3.3 tuning order: in the
	// what-if space the ridge regression surfaces the flash-timing and
	// channel levers that commodity tuning holds fixed.
	if !opts.UseTuningOrder && len(initial) > 0 {
		fine, err := FinePrune(ctx, v, &grader, goal.Target, initial[0], nil,
			PruneOptions{Seed: opts.Seed, Samples: 48})
		if err == nil && len(fine.Order) > 0 {
			opts.UseTuningOrder = true
			opts.Order = fine.Order
		}
	}

	tuner, err := NewTuner(space, v, &grader, opts)
	if err != nil {
		return nil, err
	}
	tr, err := tuner.Tune(ctx, goal.Target, initial)
	if err != nil {
		return nil, fmt.Errorf("core: what-if: %w", err)
	}

	res := &WhatIfResult{TuneResult: *tr, CriticalParams: map[string]float64{}}
	perfs := tr.BestPerf[goal.Target]
	res.LatencySpeedup, res.ThroughputSpeedup = grader.ClusterSpeedups(goal.Target, perfs)
	if opts.StopCondition != nil {
		res.Achieved = opts.StopCondition(res.LatencySpeedup, res.ThroughputSpeedup)
	}
	for _, name := range Table7Params {
		if val, err := space.ValueByName(tr.Best, name); err == nil {
			res.CriticalParams[name] = val
		}
	}
	return res, nil
}
