package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/workload"
)

func intelRef() ssd.DeviceParams { return ssd.Intel750() }

// Shared, memoized environments/results so the benchmarks and the CLI
// can invoke individual experiments without repeating the expensive
// setup. Keyed by an experiment tag plus the Scale value.
var (
	memoMu sync.Mutex
	memo   = map[string]any{}
)

func scaleKey(s Scale, tag string) string {
	return fmt.Sprintf("%s|%d|%d|%d|%d|%d|%d|%s", tag, s.Requests, s.MaxIterations, s.SGDSteps, s.PruneSamples, s.Seed, s.Parallel, s.Objectives)
}

// memoized returns the result stored under (tag, scale), building and
// storing it on first use. The lock is not held while build runs, so a
// build may itself call memoized ones (a matrix builds its Env); if two
// builds of one key race, the first stored result wins and both callers
// get it. Errors are returned, not stored, so a failed build retries.
func memoized[T any](scale Scale, tag string, build func() (T, error)) (T, error) {
	k := scaleKey(scale, tag)
	memoMu.Lock()
	v, ok := memo[k]
	memoMu.Unlock()
	if ok {
		return v.(T), nil
	}
	r, err := build()
	if err != nil {
		return r, err
	}
	memoMu.Lock()
	defer memoMu.Unlock()
	if v, ok := memo[k]; ok {
		return v.(T), nil
	}
	memo[k] = r
	return r, nil
}

// StudiedEnv returns (building once) the Table 1 environment: studied
// categories, Intel 750 reference, 512GB/NVMe/MLC constraints.
func StudiedEnv(scale Scale) (*Env, error) {
	return memoized(scale, "studied", func() (*Env, error) {
		return NewEnv(scale, ssdconf.DefaultConstraints(), intelRef(), workload.Studied())
	})
}

// NewWorkloadsEnv returns the Table 4 environment over the six new
// categories.
func NewWorkloadsEnv(scale Scale) (*Env, error) {
	return memoized(scale, "new", func() (*Env, error) {
		return NewEnv(scale, ssdconf.DefaultConstraints(), intelRef(), workload.New())
	})
}

// SLCEnv returns the Table 8 environment: Samsung Z-SSD reference with
// an SLC flash constraint.
func SLCEnv(scale Scale) (*Env, error) {
	return memoized(scale, "slc", func() (*Env, error) {
		cons := ssdconf.DefaultConstraints()
		cons.Flash = ssd.SLC
		return NewEnv(scale, cons, ssd.SamsungZSSD(), workload.Studied())
	})
}

// SATAEnv returns the Table 9 environment: Samsung 850 PRO reference
// with a SATA interface constraint.
func SATAEnv(scale Scale) (*Env, error) {
	return memoized(scale, "sata", func() (*Env, error) {
		cons := ssdconf.DefaultConstraints()
		cons.Interface = ssd.SATA
		return NewEnv(scale, cons, ssd.Samsung850Pro(), workload.Studied())
	})
}

// An artifact is one row of the evaluation table: one build, the paper
// artifacts printed from its result, and its CSV export.
type artifact struct {
	build    func(Scale) (any, error)
	sections []section
	csv      func(r any, dir string, ids []string) error // nil: no CSV
}

// A section is one paper artifact: its id, its title, and the print of
// its body from the row's result.
type section struct {
	id, title string
	print     func(r any, w io.Writer)
}

// row types an artifact's build and CSV export by its result type.
func row[T any](build func(Scale) (T, error), csv func(T, string, []string) error, secs ...section) artifact {
	a := artifact{build: func(s Scale) (any, error) { return build(s) }, sections: secs}
	if csv != nil {
		a.csv = func(r any, dir string, ids []string) error { return csv(r.(T), dir, ids) }
	}
	return a
}

// sec types a section's print by its row's result type.
func sec[T any](id, title string, print func(T, io.Writer)) section {
	return section{id, title, func(r any, w io.Writer) { print(r.(T), w) }}
}

// onEnv runs an experiment on the environment env builds for the scale.
func onEnv[T any](env func(Scale) (*Env, error), run func(*Env) (T, error)) func(Scale) (T, error) {
	return func(s Scale) (T, error) {
		e, err := env(s)
		if err != nil {
			var zero T
			return zero, err
		}
		return run(e)
	}
}

// matrix runs RunMatrix with opts.
func matrix(opts MatrixOptions) func(*Env) (*MatrixResult, error) {
	return func(e *Env) (*MatrixResult, error) { return RunMatrix(e, opts) }
}

// sweep runs the α or β study.
func sweep(param string) func(*Env) (*SweepResult, error) {
	return func(e *Env) (*SweepResult, error) { return runSweep(e, param) }
}

// artifacts is the paper's evaluation (§4), one row per build, in print
// order.
var artifacts = []artifact{
	row(RunFig2, (*Fig2Result).WriteCSV,
		sec("fig2", "Learning-based workload clustering (PCA scatter)", (*Fig2Result).Print)),
	row(onEnv(StudiedEnv, func(e *Env) (*Fig45Result, error) { return RunFig45(e, string(workload.Database)) }),
		(*Fig45Result).WriteCSV,
		sec("fig4", "Coarse-grained pruning — parameter sensitivity sweeps (Database)", (*Fig45Result).PrintCoarse),
		sec("fig5", "Fine-grained pruning — ridge coefficients (Database)", (*Fig45Result).PrintFine)),
	row(onEnv(StudiedEnv, matrix(MatrixOptions{IgnoreNonTarget: true})), (*MatrixResult).WriteCSV,
		sec("tab1", "Learned configurations, NVMe MLC (vs Intel 750) — lat/tput speedups", (*MatrixResult).PrintMatrix),
		sec("tab5", "Critical parameters of learned configurations", (*MatrixResult).PrintCriticalParams),
		sec("fig7", "Energy of learned configurations vs baseline", (*MatrixResult).PrintEnergy),
		sec("fig8", "Learning time per target workload", (*MatrixResult).PrintLearningTime)),
	row(onEnv(NewWorkloadsEnv, matrix(MatrixOptions{})), (*MatrixResult).WriteCSV,
		sec("tab4", "Learned configurations for new (unseen) workloads (vs Intel 750)", (*MatrixResult).PrintMatrix)),
	row(onEnv(StudiedEnv, RunTable6), nil,
		sec("tab6", "Overhead sources of AutoBlox", (*OverheadResult).Print)),
	row(RunTable7, nil,
		sec("tab7", "What-if analysis: optimized configurations for performance targets", (*WhatIfTable).Print)),
	row(onEnv(SLCEnv, matrix(MatrixOptions{})), (*MatrixResult).WriteCSV,
		sec("tab8", "Learned configurations, NVMe SLC (vs Samsung Z-SSD)", (*MatrixResult).PrintMatrix)),
	row(onEnv(SATAEnv, matrix(MatrixOptions{})), (*MatrixResult).WriteCSV,
		sec("tab9", "Learned configurations, SATA MLC (vs Samsung 850 PRO)", (*MatrixResult).PrintMatrix)),
	row(onEnv(StudiedEnv, matrix(MatrixOptions{OrderAblation: true,
		Targets: []string{string(workload.Database), string(workload.KVStore)}})), nil,
		sec("fig9", "Learning time with vs without enforced tuning order", (*MatrixResult).PrintOrderTime),
		sec("fig10", "Best-grade trajectory (ordered | unordered)", (*MatrixResult).PrintTrajectories)),
	row(onEnv(StudiedEnv, sweep("alpha")), (*SweepResult).WriteCSV,
		sec("fig11", "Impact of α (latency/throughput balance)", (*SweepResult).Print)),
	row(onEnv(StudiedEnv, sweep("beta")), (*SweepResult).WriteCSV,
		sec("fig12", "Impact of β (target/non-target balance)", (*SweepResult).Print)),
}

// ids returns the ids the row prints.
func (a *artifact) ids() []string {
	ids := make([]string, len(a.sections))
	for i, s := range a.sections {
		ids[i] = s.id
	}
	return ids
}

// result returns the row's build for the scale, memoized under its
// first id.
func (a *artifact) result(scale Scale) (any, error) {
	return memoized(scale, a.sections[0].id, func() (any, error) { return a.build(scale) })
}

// artifactOf returns the row that prints id, or nil.
func artifactOf(id string) *artifact {
	for i := range artifacts {
		if slices.Contains(artifacts[i].ids(), id) {
			return &artifacts[i]
		}
	}
	return nil
}

// Result returns the memoized result the artifact id prints from:
// *Fig2Result, *Fig45Result, *MatrixResult, *OverheadResult,
// *WhatIfTable or *SweepResult. Ids that share a row share the result.
func Result(scale Scale, id string) (any, error) {
	a := artifactOf(id)
	if a == nil {
		return nil, fmt.Errorf("unknown experiment id %s (valid: %s)", id, strings.Join(IDs(), ", "))
	}
	return a.result(scale)
}

// RunAllCSV executes every experiment at the given scale, writing each
// table/figure to w. `only` filters by experiment id (empty = all); an
// id not in IDs is an error before anything runs. A row runs when one
// of its ids is wanted and prints only the wanted ones.
// When csvDir is non-empty, each row also writes its underlying data as
// CSV for external plotting.
func RunAllCSV(w io.Writer, scale Scale, only map[string]bool, csvDir string) error {
	var unknown []string
	for id := range only {
		if artifactOf(id) == nil {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		return fmt.Errorf("unknown experiment id %s (valid: %s)", strings.Join(unknown, ", "), strings.Join(IDs(), ", "))
	}
	for i := range artifacts {
		a := &artifacts[i]
		var secs []section
		for _, s := range a.sections {
			if len(only) == 0 || only[s.id] {
				secs = append(secs, s)
			}
		}
		if len(secs) == 0 {
			continue
		}
		r, err := a.result(scale)
		if err != nil {
			return err
		}
		for _, s := range secs {
			fmt.Fprintf(w, "\n=== %s — %s ===\n", s.id, s.title)
			s.print(r, w)
		}
		if csvDir != "" && a.csv != nil {
			if err := a.csv(r, csvDir, a.ids()); err != nil {
				return err
			}
		}
	}
	return nil
}

// IDs lists the experiment identifiers RunAllCSV understands, in print
// order.
func IDs() []string {
	var ids []string
	for i := range artifacts {
		ids = append(ids, artifacts[i].ids()...)
	}
	return ids
}
