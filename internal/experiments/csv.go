package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// CSV export: each artifact can dump its underlying data as a CSV file
// for external plotting (the paper's figures are plots; the text tables
// this package prints are their terminal rendering). Each WriteCSV takes
// the ids of its table row (runall.go) and names its files after them.

// writeCSV writes rows to dir/name.csv.
func writeCSV(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: csv mkdir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return fmt.Errorf("experiments: csv create: %w", err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func f2s(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// WriteCSV dumps the Fig. 2 scatter: one row per training window.
func (r *Fig2Result) WriteCSV(dir string, ids []string) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{p.Category, f2s(p.X), f2s(p.Y), strconv.Itoa(p.Cluster)})
	}
	return writeCSV(dir, ids[0]+"_scatter", []string{"category", "pc1", "pc2", "cluster"}, rows)
}

// WriteCSV dumps the Fig. 4 sweeps and Fig. 5 coefficients (ids[0]
// and ids[1]). Rows come out in parameter-name order, each sweep in its
// own order.
func (r *Fig45Result) WriteCSV(dir string, ids []string) error {
	byName := func(a, b []string) int { return strings.Compare(a[0], b[0]) }
	var sweepRows [][]string
	for name, sweep := range r.Coarse.Sweeps {
		for _, pt := range sweep {
			sweepRows = append(sweepRows, []string{
				name, f2s(pt.Value), f2s(pt.Multiplier), f2s(pt.Performance)})
		}
	}
	slices.SortStableFunc(sweepRows, byName)
	if err := writeCSV(dir, ids[0]+"_sweeps",
		[]string{"parameter", "value", "multiplier", "performance"}, sweepRows); err != nil {
		return err
	}
	var coefRows [][]string
	for name, coef := range r.Fine.Coefficients {
		coefRows = append(coefRows, []string{name, f2s(coef)})
	}
	slices.SortFunc(coefRows, byName)
	return writeCSV(dir, ids[1]+"_coefficients", []string{"parameter", "coefficient"}, coefRows)
}

// WriteCSV dumps a learned-configuration matrix: one row per
// (target, workload) cell plus energy and learning-time side tables.
func (m *MatrixResult) WriteCSV(dir string, ids []string) error {
	id := ids[0]
	var cells [][]string
	for _, target := range m.Targets {
		run := m.Runs[target]
		for _, wl := range m.Targets {
			cells = append(cells, []string{
				target, wl, f2s(run.Lat[wl]), f2s(run.Tput[wl]),
				strconv.FormatBool(wl == target),
			})
		}
	}
	if err := writeCSV(dir, id+"_matrix",
		[]string{"target", "workload", "latency_speedup", "throughput_speedup", "is_target"}, cells); err != nil {
		return err
	}
	var energy [][]string
	var timing [][]string
	for _, target := range m.Targets {
		run := m.Runs[target]
		e := run.Energy[target]
		energy = append(energy, []string{target, f2s(e[0]), f2s(e[1])})
		timing = append(timing, []string{
			target,
			f2s(run.Result.Elapsed.Seconds()),
			strconv.Itoa(run.Result.Iterations),
			strconv.Itoa(run.Result.SimRuns),
		})
	}
	if err := writeCSV(dir, id+"_energy",
		[]string{"workload", "baseline_joules", "learned_joules"}, energy); err != nil {
		return err
	}
	return writeCSV(dir, id+"_learning",
		[]string{"target", "wall_seconds", "iterations", "simulations"}, timing)
}

// WriteCSV dumps an α/β sweep: one row per (workload, value).
func (r *SweepResult) WriteCSV(dir string, ids []string) error {
	var rows [][]string
	for _, wl := range r.Workloads {
		for i, v := range r.Values {
			rows = append(rows, []string{
				wl, f2s(v), f2s(r.Lat[wl][i]), f2s(r.Tput[wl][i]), f2s(r.NonTarget[wl][i])})
		}
	}
	return writeCSV(dir, ids[0]+"_"+r.Param,
		[]string{"workload", r.Param, "latency_speedup", "throughput_speedup", "nontarget_latency_speedup"}, rows)
}
