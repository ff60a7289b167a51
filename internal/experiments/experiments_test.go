package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"autoblox/internal/core"
	"autoblox/internal/ssdconf"
	"autoblox/internal/workload"
)

// tinyScale keeps experiment tests fast.
func tinyScale() Scale {
	return Scale{Requests: 2000, MaxIterations: 4, SGDSteps: 3, PruneSamples: 16, Seed: 7}
}

// resultOf returns the table's memoized result for id at tinyScale.
func resultOf[T any](t *testing.T, id string) T {
	t.Helper()
	r, err := Result(tinyScale(), id)
	if err != nil {
		t.Fatal(err)
	}
	return r.(T)
}

func TestFig2(t *testing.T) {
	r := resultOf[*Fig2Result](t, "fig2")
	if r.Accuracy < 0.7 {
		t.Fatalf("clustering accuracy %.2f too low even at tiny scale", r.Accuracy)
	}
	if len(r.Points) == 0 {
		t.Fatal("no scatter points")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "validation accuracy") {
		t.Fatal("Print output incomplete")
	}
}

func TestStudiedEnvMemoized(t *testing.T) {
	a, err := StudiedEnv(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	b, err := StudiedEnv(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("StudiedEnv not memoized")
	}
	if len(a.Sources) != len(workload.Studied()) {
		t.Fatalf("env has %d trace sources", len(a.Sources))
	}
}

// TestMemoKeyedByObjectives checks that a Pareto environment is not
// served the memoized scalar one: the objective axes are part of the
// memo key, like every other Scale value that changes the results.
func TestMemoKeyedByObjectives(t *testing.T) {
	scalar, err := StudiedEnv(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	scale := tinyScale()
	scale.Objectives, err = ssdconf.ParseObjectiveSpec("perf,power")
	if err != nil {
		t.Fatal(err)
	}
	pareto, err := StudiedEnv(scale)
	if err != nil {
		t.Fatal(err)
	}
	if pareto == scalar || pareto.Space.Objectives.String() != "perf,power" {
		t.Fatalf("Pareto scale got the %q environment", pareto.Space.Objectives)
	}
}

func TestFig45(t *testing.T) {
	e, err := StudiedEnv(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunFig45(e, string(workload.Database))
	if err != nil {
		t.Fatal(err)
	}
	// 38 numeric sweeps (incl. ZoneSize/MaxOpenZones/WriteStreams) + the
	// 4 tunable categorical dimensions (PlaneAllocationScheme,
	// CachePolicy, GCPolicy, HostInterfaceModel).
	if len(r.Coarse.Sweeps) != 42 {
		t.Fatalf("coarse sweeps = %d, want 42", len(r.Coarse.Sweeps))
	}
	if len(r.Fine.Order) == 0 {
		t.Fatal("fine pruning produced no order")
	}
	var buf bytes.Buffer
	r.PrintCoarse(&buf)
	r.PrintFine(&buf)
	for _, want := range []string{"insensitive parameters", "ridge fit", "tuning order"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Print output missing %q", want)
		}
	}
}

func TestMatrixSmall(t *testing.T) {
	e, err := StudiedEnv(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunMatrix(e, MatrixOptions{
		Targets: []string{string(workload.Database), string(workload.WebSearch)},
		NoOrder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 2 {
		t.Fatalf("runs = %d", len(m.Runs))
	}
	for _, target := range m.Targets {
		run := m.Runs[target]
		if run.Lat[target] <= 0 || run.Tput[target] <= 0 {
			t.Fatalf("%s: bad speedups %v/%v", target, run.Lat[target], run.Tput[target])
		}
		if len(run.Energy) == 0 {
			t.Fatalf("%s: no energy data", target)
		}
	}
	// The ids of one table row share one memoized build.
	if resultOf[*MatrixResult](t, "tab1") != resultOf[*MatrixResult](t, "tab5") {
		t.Fatal("tab5 and tab1 got different *MatrixResult values")
	}

	var buf bytes.Buffer
	m.PrintMatrix(&buf)
	m.PrintCriticalParams(&buf)
	m.PrintEnergy(&buf)
	m.PrintLearningTime(&buf)
	out := buf.String()
	for _, want := range []string{"geomean(non-tgt)", "CMTCapacity", "ratio", "converged", "average iterations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("matrix prints missing %q", want)
		}
	}
}

func TestInitialConfigsValid(t *testing.T) {
	e, err := StudiedEnv(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	inits := e.InitialConfigs()
	if len(inits) < 2 {
		t.Fatalf("want diverse initials, got %d", len(inits))
	}
	for i, cfg := range inits {
		if err := e.Space.CheckConstraints(cfg); err != nil {
			t.Fatalf("initial %d violates constraints: %v", i, err)
		}
	}
}

func TestTable6(t *testing.T) {
	e, err := StudiedEnv(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	o, err := RunTable6(e)
	if err != nil {
		t.Fatal(err)
	}
	if o.FeatureExtractPer100K <= 0 || o.EfficiencyValidation <= 0 || o.LearningPerIteration <= 0 {
		t.Fatalf("missing overheads: %+v", o)
	}
	// The paper's shape: validation dominates per-iteration learning.
	if o.EfficiencyValidation < o.LearningPerIteration {
		t.Fatalf("validation (%v) should dominate learning (%v)",
			o.EfficiencyValidation, o.LearningPerIteration)
	}
	var buf bytes.Buffer
	o.Print(&buf)
	if !strings.Contains(buf.String(), "Efficiency validation") {
		t.Fatal("Print output incomplete")
	}
}

func TestRunAllFiltered(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAllCSV(&buf, tinyScale(), map[string]bool{"fig2": true}, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fig2") {
		t.Fatal("fig2 missing from filtered run")
	}
	if strings.Contains(out, "tab1") {
		t.Fatal("filter leaked other experiments")
	}
}

// TestRunAllRejectsUnknownID checks that an unknown id fails the whole
// run before any experiment runs, and that the error names it and the
// valid ids.
func TestRunAllRejectsUnknownID(t *testing.T) {
	var buf bytes.Buffer
	err := RunAllCSV(&buf, tinyScale(), map[string]bool{"fig2": true, "tab99": true}, "")
	if err == nil || !strings.Contains(err.Error(), `tab99`) || !strings.Contains(err.Error(), strings.Join(IDs(), ", ")) {
		t.Fatalf("RunAllCSV(-only fig2,tab99) = %v, want an error naming tab99 and the valid ids", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("RunAllCSV ran experiments before rejecting tab99:\n%s", buf.String())
	}
}

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	want := []string{"fig2", "fig4", "fig5", "tab1", "tab5", "fig7", "fig8", "tab4",
		"tab6", "tab7", "tab8", "tab9", "fig9", "fig10", "fig11", "fig12"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestScales(t *testing.T) {
	d, p := DefaultScale(), PaperScale()
	if p.Requests <= d.Requests || p.MaxIterations <= d.MaxIterations {
		t.Fatal("paper scale should exceed default scale")
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	if err := RunAllCSV(io.Discard, tinyScale(), map[string]bool{"fig2": true, "tab1": true}, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2_scatter", "tab1_matrix", "tab1_energy", "tab1_learning"} {
		data, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Count(string(data), "\n")
		if lines < 2 {
			t.Fatalf("%s: only %d lines", name, lines)
		}
	}
	// Matrix CSV has one row per (target, workload) pair + header.
	n := len(workload.Studied())
	data, _ := os.ReadFile(filepath.Join(dir, "tab1_matrix.csv"))
	if got := strings.Count(string(data), "\n"); got != n*n+1 {
		t.Fatalf("matrix rows = %d, want %d", got, n*n+1)
	}
}

// TestFig45CSVInNameOrder writes the same result twice: the two files
// must be byte-identical and list parameters in name order, as the
// maps they come from have no order of their own.
func TestFig45CSVInNameOrder(t *testing.T) {
	r := &Fig45Result{Coarse: &core.CoarseResult{Sweeps: map[string][]core.SweepPoint{}},
		Fine: &core.FineResult{Coefficients: map[string]float64{}}}
	for i := 0; i < 26; i++ {
		name := string(rune('Z'-i)) + "Param"
		r.Coarse.Sweeps[name] = []core.SweepPoint{{Value: float64(i), Multiplier: 1, Performance: 2}, {Value: 3}}
		r.Fine.Coefficients[name] = float64(i)
	}
	var first map[string][]byte
	for run := 0; run < 2; run++ {
		dir := t.TempDir()
		if err := r.WriteCSV(dir, []string{"fig4", "fig5"}); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, name := range []string{"fig4_sweeps", "fig5_coefficients"} {
			data, err := os.ReadFile(filepath.Join(dir, name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			files[name] = data
			var params []string
			for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
				params = append(params, strings.SplitN(line, ",", 2)[0])
			}
			if !sort.StringsAreSorted(params) {
				t.Errorf("%s rows not in name order: %v", name, params)
			}
		}
		if first == nil {
			first = files
			continue
		}
		for name, data := range files {
			if !bytes.Equal(data, first[name]) {
				t.Errorf("%s differs between two writes of the same result", name)
			}
		}
	}
}

// TestTable6HonoursSimTimeout: tab6 measures on a validator of its own,
// and the scale's per-simulation timeout must bound that one too.
func TestTable6HonoursSimTimeout(t *testing.T) {
	e, err := NewEnv(tinyScale(), ssdconf.DefaultConstraints(), intelRef(), []workload.Category{workload.Database})
	if err != nil {
		t.Fatal(err)
	}
	e.Scale.SimTimeout = time.Nanosecond
	if _, err := RunTable6(e); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunTable6 with a 1ns simulation timeout: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestFig4TiesInNameOrder prints one result twice: parameters of equal
// sensitivity (most are flat at 0) must come out in name order, so the
// two prints are identical.
func TestFig4TiesInNameOrder(t *testing.T) {
	r := &Fig45Result{Coarse: &core.CoarseResult{Sensitivity: map[string]float64{"Top": 0.5}}}
	for i := 0; i < 26; i++ {
		r.Coarse.Sensitivity[string(rune('Z'-i))+"Flat"] = 0
	}
	var first string
	for run := 0; run < 2; run++ {
		var buf bytes.Buffer
		r.PrintCoarse(&buf)
		lines := strings.Split(buf.String(), "\n")
		if !strings.HasPrefix(lines[1], "Top ") {
			t.Fatalf("most sensitive parameter not first:\n%s", buf.String())
		}
		var tied []string
		for _, line := range lines[2:28] {
			tied = append(tied, strings.Fields(line)[0])
		}
		if !sort.StringsAreSorted(tied) {
			t.Fatalf("tied parameters not in name order: %v", tied)
		}
		if run == 1 && buf.String() != first {
			t.Fatalf("two prints of one result differ:\n%s\n---\n%s", first, buf.String())
		}
		first = buf.String()
	}
}

// TestOnlyPrintsOwnSection runs each id alone: the output must be that
// id's section and no other, even where its row prints several.
func TestOnlyPrintsOwnSection(t *testing.T) {
	for _, id := range IDs() {
		var buf bytes.Buffer
		if err := RunAllCSV(&buf, tinyScale(), map[string]bool{id: true}, ""); err != nil {
			t.Fatalf("-only %s: %v", id, err)
		}
		out := buf.String()
		if n := strings.Count(out, "\n=== "); n != 1 || !strings.HasPrefix(out, "\n=== "+id+" — ") {
			t.Errorf("-only %s printed %d headers, want its own one:\n%s", id, n, out)
		}
	}
}
