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

// Matrix memoizes RunMatrix per (env tag, scale).
func Matrix(scale Scale, tag string, envFn func(Scale) (*Env, error), opts MatrixOptions) (*MatrixResult, error) {
	return memoized(scale, "mtx-"+tag, func() (*MatrixResult, error) {
		e, err := envFn(scale)
		if err != nil {
			return nil, err
		}
		return RunMatrix(e, opts)
	})
}

// Fig2 memoizes RunFig2.
func Fig2(scale Scale) (*Fig2Result, error) {
	return memoized(scale, "fig2", func() (*Fig2Result, error) { return RunFig2(scale) })
}

// Table1Options are the passes the Table 1 reproduction runs.
func Table1Options() MatrixOptions {
	return MatrixOptions{IgnoreNonTarget: true}
}

// sweepTargets are the three representative workloads of Figs. 11–12.
func sweepTargets() []string {
	return []string{string(workload.Database), string(workload.KVStore), string(workload.LiveMaps)}
}

// AlphaSweep memoizes the Fig. 11 study.
func AlphaSweep(scale Scale) (*SweepResult, error) {
	return memoSweep(scale, "alpha", RunAlphaSweep)
}

// BetaSweep memoizes the Fig. 12 study.
func BetaSweep(scale Scale) (*SweepResult, error) {
	return memoSweep(scale, "beta", RunBetaSweep)
}

func memoSweep(scale Scale, tag string, run func(*Env, []float64, []string) (*SweepResult, error)) (*SweepResult, error) {
	return memoized(scale, "sweep-"+tag, func() (*SweepResult, error) {
		e, err := StudiedEnv(scale)
		if err != nil {
			return nil, err
		}
		return run(e, nil, sweepTargets())
	})
}

// table7Result is one memoized what-if analysis with its environment.
type table7Result struct {
	runs []WhatIfRun
	env  *Env
}

// Table7 memoizes the what-if analysis.
func Table7(scale Scale) ([]WhatIfRun, *Env, error) {
	r, err := memoized(scale, "tab7", func() (table7Result, error) {
		runs, env, err := RunTable7(scale, 3)
		return table7Result{runs, env}, err
	})
	return r.runs, r.env, err
}

// RunAllCSV executes every experiment at the given scale, writing each
// table/figure to w. `only` filters by experiment id (empty = all); an
// id not in IDs is an error before anything runs.
// When csvDir is non-empty, each artifact also writes its underlying
// data as CSV for external plotting.
func RunAllCSV(w io.Writer, scale Scale, only map[string]bool, csvDir string) error {
	var unknown []string
	for id := range only {
		if !slices.Contains(IDs(), id) {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		return fmt.Errorf("unknown experiment id %s (valid: %s)", strings.Join(unknown, ", "), strings.Join(IDs(), ", "))
	}
	want := func(id string) bool { return len(only) == 0 || only[id] }
	exportCSV := func(write func(string) error) error {
		if csvDir == "" {
			return nil
		}
		return write(csvDir)
	}

	if want("fig2") {
		r, err := Fig2(scale)
		if err != nil {
			return err
		}
		r.Print(w)
		if err := exportCSV(r.WriteCSV); err != nil {
			return err
		}
	}

	if want("fig4") || want("fig5") {
		e, err := StudiedEnv(scale)
		if err != nil {
			return err
		}
		r, err := RunFig45(e, string(workload.Database))
		if err != nil {
			return err
		}
		r.Print(w)
		if err := exportCSV(r.WriteCSV); err != nil {
			return err
		}
	}

	if want("tab1") || want("tab5") || want("fig7") || want("fig8") {
		m, err := Matrix(scale, "studied", StudiedEnv, Table1Options())
		if err != nil {
			return err
		}
		if want("tab1") {
			m.PrintMatrix(w, "tab1", "Learned configurations, NVMe MLC (vs Intel 750) — lat/tput speedups")
		}
		if want("tab5") {
			m.PrintCriticalParams(w)
		}
		if want("fig7") {
			m.PrintEnergy(w)
		}
		if want("fig8") {
			m.PrintLearningTime(w)
		}
		if err := exportCSV(func(d string) error { return m.WriteCSV(d, "tab1") }); err != nil {
			return err
		}
	}

	if want("tab4") {
		m, err := Matrix(scale, "new", NewWorkloadsEnv, MatrixOptions{})
		if err != nil {
			return err
		}
		m.PrintMatrix(w, "tab4", "Learned configurations for new (unseen) workloads (vs Intel 750)")
		if err := exportCSV(func(d string) error { return m.WriteCSV(d, "tab4") }); err != nil {
			return err
		}
	}

	if want("tab6") {
		e, err := StudiedEnv(scale)
		if err != nil {
			return err
		}
		o, err := RunTable6(e)
		if err != nil {
			return err
		}
		o.Print(w)
	}

	if want("tab7") {
		runs, env, err := Table7(scale)
		if err != nil {
			return err
		}
		PrintTable7(w, runs, env)
	}

	if want("tab8") {
		m, err := Matrix(scale, "slc", SLCEnv, MatrixOptions{})
		if err != nil {
			return err
		}
		m.PrintMatrix(w, "tab8", "Learned configurations, NVMe SLC (vs Samsung Z-SSD)")
		if err := exportCSV(func(d string) error { return m.WriteCSV(d, "tab8") }); err != nil {
			return err
		}
	}

	if want("tab9") {
		m, err := Matrix(scale, "sata", SATAEnv, MatrixOptions{})
		if err != nil {
			return err
		}
		m.PrintMatrix(w, "tab9", "Learned configurations, SATA MLC (vs Samsung 850 PRO)")
		if err := exportCSV(func(d string) error { return m.WriteCSV(d, "tab9") }); err != nil {
			return err
		}
	}

	if want("fig9") || want("fig10") {
		m, err := Matrix(scale, "ablate", StudiedEnv, MatrixOptions{
			OrderAblation: true,
			Targets:       []string{string(workload.Database), string(workload.KVStore)},
		})
		if err != nil {
			return err
		}
		m.PrintOrderAblation(w)
	}

	if want("fig11") {
		r, err := AlphaSweep(scale)
		if err != nil {
			return err
		}
		r.Print(w)
		if err := exportCSV(r.WriteCSV); err != nil {
			return err
		}
	}

	if want("fig12") {
		r, err := BetaSweep(scale)
		if err != nil {
			return err
		}
		r.Print(w)
		if err := exportCSV(r.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// IDs lists the experiment identifiers RunAllCSV understands.
func IDs() []string {
	return []string{"fig2", "fig4", "fig5", "tab1", "tab4", "tab5", "tab6", "tab7", "tab8", "tab9",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12"}
}
