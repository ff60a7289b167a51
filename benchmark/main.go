// Command bench is the repository benchmark. It runs one named workload
// against the public entry points of autoblox and its internal layers,
// checks the outputs, and prints every metric by name and unit; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured without
// tracing. With --trace 1 the run alternates untraced and traced
// operations and reports the per-layer set, read from spans the
// benchmark records around each call into a layer, plus the tracing
// overhead. See README.md for the workloads and metric definitions.
//
// Run it through run.sh, which builds it first:
//
//	bash benchmark/run.sh --workload tune-scalar --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the --trace 0 metric set: what a user of the system sees.
// Every workload reports every one of them (see README.md for the
// per-workload definitions). Timings are in reference seconds (see
// calib.go).
var endToEnd = []metricDef{
	{"op_norm_s", "s"},
	{"req_per_norm_s", "records/s"},
	{"sims_per_op", "count"},
	{"best_grade", "grade"},
	{"alloc_b_per_req", "B/record"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is the --trace 1 metric set. A layer a workload does not
// reach reports 0. Metrics in time units are in reference seconds.
var perLayer = []metricDef{
	{"workload.gen_ns_per_req", "ns/record"},
	{"trace.features_s", "s"},
	{"clusterer.fit_s", "s"},
	{"grader.reference_s", "s"},
	{"grader.sims", "count"},
	{"prune.fine_s", "s"},
	{"prune.sims", "count"},
	{"tuner.search_s", "s"},
	{"tuner.sims", "count"},
	{"tuner.iterations", "count"},
	{"tuner.iter_p50_ms", "ms"},
	{"tuner.iter_max_ms", "ms"},
	{"tuner.pruned_validations", "count"},
	{"tuner.front_size", "count"},
	{"tuner.front_hypervolume", "ratio"},
	{"tuner.self_s", "s"},
	{"validator.cache_hits", "count"},
	{"validator.coalesced", "count"},
	{"validator.hit_ratio", "ratio"},
	{"validator.sim_busy_s", "s"},
	{"validator.queue_wait_s", "s"},
	{"validator.pool_util", "ratio"},
	{"ssd.ns_per_req", "ns/record"},
	{"dist.jobs", "count"},
	{"dist.measure_p50_ms", "ms"},
	{"dist.measure_p90_ms", "ms"},
	{"dist.overhead_ms_per_job", "ms"},
	{"dist.queue_wait_s", "s"},
	{"dist.leases_expired", "count"},
	{"trace.decode_ns_per_req", "ns/record"},
	{"ssd.ns_per_req.conventional", "ns/record"},
	{"ssd.ns_per_req.zns", "ns/record"},
	{"ssd.ns_per_req.multistream", "ns/record"},
	{"ssd.ns_per_flash_op", "ns/op"},
	{"ssd.alloc_b_per_req", "B/record"},
	{"ssd.gc_runs", "count"},
	{"ssd.erases", "count"},
	{"ssd.write_amp", "ratio"},
	{"ssd.cmt_hit_ratio", "ratio"},
	{"ssd.cache_hit_ratio", "ratio"},
	{"bench.trace_overhead_s", "s"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload   string
	seed       int64
	corpusSeed int64
	budget     time.Duration
	traced     bool
	smoke      bool // tiny inputs, for the benchmark's own tests
	workdir    string
}

// report is what a workload hands back for printing.
type report struct {
	attempted int
	failed    int
	failures  []string
	e2e       map[string]float64 // --trace 0 metrics
	layer     map[string]float64 // --trace 1 metrics
	lines     []string           // human-readable metric and check lines
	spans     []span
	// repeats counts tunes compared with another tune of the same inputs;
	// bitDiffs those whose float outputs differed below gradeTolerance.
	repeats, bitDiffs int
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a failed check of one operation.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// timing prints a per-operation timing as its median, its highest
// percentile with at least ten samples beyond it, and the sample count.
func (r *report) timing(name, unit string, xs []float64) {
	line := fmt.Sprintf("%-28s median %.6g %s (n=%d", name, median(xs), unit, len(xs))
	if q, ok := tailQuantile(len(xs)); ok {
		line += fmt.Sprintf(", p%g %.6g %s", q*100, quantile(xs, q), unit)
	} else {
		line += fmt.Sprintf(", no tail: %d samples < %d", len(xs), 2*minTail)
	}
	r.printf("%s)", line)
	if len(xs) > 1 && len(xs) <= 64 {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
		}
		r.printf("%-28s samples %s", "", strings.Join(parts, " "))
	}
}

// timeUnits are the units scaled into reference seconds.
var timeUnits = map[string]bool{"s": true, "ms": true, "ns/record": true, "ns/op": true}

// finishTraced turns a traced run's per-operation layer samples into the
// per-layer metrics (medians, times scaled to reference seconds) and the
// tracing overhead: the traced minus the untraced median operation time.
func (r *report) finishTraced(op string, layers map[string][]float64, walls, twalls samples, rec *recorder, scale float64) {
	for _, d := range perLayer {
		if xs, ok := layers[d.name]; ok {
			r.layer[d.name] = median(xs)
			if timeUnits[d.unit] {
				r.layer[d.name] *= scale
			}
		}
	}
	r.layer["bench.trace_overhead_s"] = median(twalls.ref) - median(walls.ref)
	r.timing("traced "+op, "s", twalls.host)
	r.printf("%-28s %.6g s (traced minus untraced median %s, reference s)", "bench.trace_overhead_s", r.layer["bench.trace_overhead_s"], op)
	for _, d := range perLayer {
		if _, ok := layers[d.name]; ok {
			r.printf("%-28s %.6g %s", d.name, r.layer[d.name], d.unit)
		}
	}
	r.spans = rec.snapshot()
}

// reference prints the run's calibration, which converts host seconds
// into reference seconds.
func (r *report) reference(c *calibrator) {
	r.timing("calibration_pass_s", "s", c.passes)
	r.printf("%-28s %.6g (reference seconds per host second; reference pass %v)", "calibration_scale", c.scale(), refPass)
}

type workloadFunc func(ctx context.Context, cfg runConfig) (*report, error)

var workloads = map[string]workloadFunc{
	"tune-scalar":         runTune,
	"tune-pareto":         runTune,
	"replay-small-device": runReplay,
}

// closedLoop runs op back to back with one caller until starting another
// would end past the budget (judged by the previous operation's length);
// at least minOps operations always run. An operation error stops the
// loop.
func closedLoop(budget time.Duration, minOps int, op func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= minOps && time.Since(start)+last > budget {
			return nil
		}
		t0 := time.Now()
		if err := op(i); err != nil {
			return err
		}
		last = time.Since(t0)
	}
}

// meta is the run metadata recorded with every result.
type meta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	CorpusSeed int64  `json:"corpus_seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit reads the VCS revision the Go toolchain stamped into the
// binary; a build outside a git checkout has none.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB reads the process's peak resident set (VmHWM), falling back
// to the Go runtime's obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result assembles the final JSON object from a report.
func result(rep *report, traced bool) resultOut {
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layer
	}
	out := resultOut{
		Correct:   rep.failed == 0 && len(rep.failures) == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: tune-scalar, tune-pareto or replay-small-device")
	seed := fs.Int64("seed", 1, "input seed (held-out seed for confirming claims: 2)")
	corpus := fs.Int64("corpus-seed", 42, "seed of the tune workloads' training corpus (held-out: 43)")
	secs := fs.Int("seconds", 30, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "autoblox-bench", "work"), "scratch directory for trace files, databases and results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown --workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}
	if *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	cfg := runConfig{
		workload: *name, seed: *seed, corpusSeed: *corpus,
		budget: time.Duration(*secs) * time.Second, traced: *traceFlag == 1,
		workdir: *workdir,
	}
	md := meta{
		Workload: *name, Seed: *seed, CorpusSeed: *corpus, Seconds: *secs, Trace: cfg.traced,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	// Guard against a hung operation: the whole run must end well within
	// three minutes even when the budget is spent.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.budget+150*time.Second)
	defer cancel()
	rep, err := wl(ctx, cfg)
	if err != nil {
		return err
	}
	rep.e2e["peak_rss_mb"] = peakRSSMB()

	mdJSON, _ := json.Marshal(md) // plain struct of strings and ints
	fmt.Printf("meta %s\n", mdJSON)
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	fmt.Printf("%-28s %.6g MB\n", "peak_rss_mb", rep.e2e["peak_rss_mb"])
	failedFrac := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Printf("%-28s %.6g ratio (%d of %d operations)\n", "failed_frac", failedFrac, rep.failed, rep.attempted)
	for _, f := range rep.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}

	res := result(rep, cfg.traced)
	stem := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traceFlag)
	if cfg.traced {
		p := filepath.Join(*workdir, "spans-"+stem+".jsonl")
		if err := writeSpans(p, rep.spans); err != nil {
			return err
		}
		fmt.Printf("spans written to %s (%d spans)\n", p, len(rep.spans))
	}
	full, err := json.MarshalIndent(struct {
		Meta   meta      `json:"meta"`
		Lines  []string  `json:"lines"`
		Result resultOut `json:"result"`
	}{md, rep.lines, res}, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err) // a NaN or infinite metric
	}
	if err := os.WriteFile(filepath.Join(*workdir, "result-"+stem+".json"), full, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err) // a NaN or infinite metric
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}
