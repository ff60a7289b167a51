// Command autoblox is the end-to-end CLI for the AutoBlox framework:
// learn workload clusters, recommend optimized SSD configurations for a
// trace, run parameter pruning, or perform what-if analysis.
//
// Usage:
//
//	autoblox learn   -db autoblox.db [-requests 20000]
//	autoblox recommend -db autoblox.db -blktrace new.trace [-capacity 512 -iface nvme -flash mlc -power 5]
//	autoblox prune   -db autoblox.db -target Database
//	autoblox whatif  -target WebSearch -latency 3
//	autoblox tune    -db autoblox.db -target Database
//
// With -objectives perf,power,lifetime the tuning subcommands switch
// from the scalar grade to a Pareto-front search over the listed axes
// and print the resulting non-dominated front as a table; -front-json
// additionally writes it as JSON ('-' = stdout).
//
// Every subcommand also accepts the observability flags -metrics <file>,
// -trace <file> (Chrome trace_event JSONL), -pprof <addr>, -progress and
// -http <addr> (live introspection: /metrics, /statusz, /tunez, /eventz,
// /debug/pprof), plus the resilience flags -sim-timeout <dur> and
// -cache-dir <dir>. tune and recommend also take -checkpoint <file> and
// -resume: with -checkpoint set, Ctrl-C stops the search at the next
// iteration boundary and a rerun with -resume continues it
// bit-identically.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"autoblox"
	"autoblox/internal/cliobs"
	"autoblox/internal/core"
	"autoblox/internal/dist"
	"autoblox/internal/ssd"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "learn":
		runLearn(args)
	case "recommend":
		runRecommend(args)
	case "tune":
		runTune(args)
	case "prune":
		runPrune(args)
	case "whatif":
		runWhatIf(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: autoblox <learn|recommend|tune|prune|whatif> [flags]
  learn      train the workload-clustering model on the studied categories
  recommend  cluster a trace and recommend (or learn) an SSD configuration
  tune       learn a configuration for a known workload category
  prune      run coarse+fine parameter pruning for a category
  whatif     search expanded bounds for a performance target`)
	os.Exit(2)
}

// commonFlags registers the flags shared by every subcommand.
type commonFlags struct {
	db         string
	capacity   int
	iface      string
	flash      string
	power      float64
	requests   int
	iters      int
	seed       int64
	parallel   int
	workers    int
	listen     string
	objectives string
	frontJSON  string
	obs        *cliobs.Flags
	res        *cliobs.Resilience
	fleet      *dist.Fleet
	spec       autoblox.ObjectiveSpec
}

func registerCommon(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{obs: cliobs.Register(fs), res: cliobs.RegisterResilience(fs)}
	fs.StringVar(&c.db, "db", "autoblox.db", "AutoDB path")
	fs.IntVar(&c.capacity, "capacity", 512, "capacity constraint (GB)")
	fs.StringVar(&c.iface, "iface", "nvme", "interface constraint: nvme or sata")
	fs.StringVar(&c.flash, "flash", "mlc", "flash type constraint: slc, mlc or tlc")
	fs.Float64Var(&c.power, "power", 0, "power budget (W, 0 = unlimited)")
	fs.IntVar(&c.requests, "requests", 12000, "synthetic trace length")
	fs.IntVar(&c.iters, "iters", 20, "tuner iterations")
	fs.Int64Var(&c.seed, "seed", 42, "RNG seed")
	fs.IntVar(&c.parallel, "parallel", runtime.GOMAXPROCS(0), "max concurrent validation simulations")
	fs.IntVar(&c.workers, "workers", 0, "in-process fleet: spawn N loopback sim workers (0 = local pool)")
	fs.StringVar(&c.listen, "listen", "", "accept remote autobloxd-worker connections on this address")
	fs.StringVar(&c.objectives, "objectives", "", "objective axes, comma-separated from perf,power,lifetime (empty = scalar grade)")
	fs.StringVar(&c.frontJSON, "front-json", "", "write the Pareto front as JSON to this file ('-' = stdout)")
	return c
}

// constraints resolves the device constraint flags. -iface and -flash
// name ssd registry entries in any case; an unknown name is an error
// listing the valid ones.
func (c *commonFlags) constraints() (autoblox.Constraints, error) {
	cons := autoblox.DefaultConstraints()
	cons.CapacityBytes = int64(c.capacity) << 30
	var err error
	if cons.Interface, err = ssd.ParseInterface(c.iface); err != nil {
		return cons, fmt.Errorf("-iface: %w", err)
	}
	if cons.Flash, err = ssd.ParseFlashType(c.flash); err != nil {
		return cons, fmt.Errorf("-flash: %w", err)
	}
	cons.PowerBudgetWatts = c.power
	return cons, nil
}

// setupObs activates the observability flags, exiting on error.
func (c *commonFlags) setupObs() func() {
	cleanup, err := c.obs.Setup(c.iters)
	if err != nil {
		fatal(err)
	}
	return cleanup
}

// framework builds the Framework; call after setupObs so the metrics
// registry (when requested) is attached to the validator. With -workers
// or -listen set it also starts the validation fleet and routes every
// simulation through it.
func (c *commonFlags) framework(whatIf bool) *autoblox.Framework {
	cons, err := c.constraints()
	if err != nil {
		fmt.Fprintln(os.Stderr, "autoblox:", err)
		os.Exit(2)
	}
	spec, err := autoblox.ParseObjectives(c.objectives)
	if err != nil {
		fatal(fmt.Errorf("-objectives: %w", err))
	}
	c.spec = spec
	opts := autoblox.Options{
		DBPath: c.db, Seed: c.seed, WhatIfSpace: whatIf, Parallel: c.parallel,
		Metrics:    c.obs.Reg,
		Tuner:      autoblox.TunerOptions{MaxIterations: c.iters},
		SimTimeout: c.res.SimTimeout,
		Checkpoint: c.res.Checkpoint, Resume: c.res.Resume,
		Objectives: spec,
		CacheDir:   c.res.CacheDir,
	}
	if c.workers > 0 || c.listen != "" {
		c.startFleet(whatIf, cons)
		opts.Backend = c.fleet.Backend()
	}
	fw, err := autoblox.New(cons, opts)
	if err != nil {
		fatal(err)
	}
	return fw
}

// startFleet builds the distributable measurement environment — the
// studied synthetic categories at the run's -requests/-seed — and
// starts the coordinator plus any loopback workers. Freshly clustered
// blktrace workloads are not distributable (remote workers cannot
// regenerate them from a seed), so recommending for a brand-new trace
// category fails worker-side with an unknown-cluster error; use the
// local pool for that.
func (c *commonFlags) startFleet(whatIf bool, cons autoblox.Constraints) {
	specs := make(map[string][]dist.WorkloadSpec)
	for _, cat := range workload.Studied() {
		specs[string(cat)] = []dist.WorkloadSpec{{Category: string(cat), Requests: c.requests, Seed: c.seed}}
	}
	env, err := dist.NewEnv(cons, whatIf, ssd.FaultProfile{}, specs)
	if err != nil {
		fatal(err)
	}
	if !c.spec.Scalar() {
		// Ship the objective spec with the env so workers whose binaries
		// reconstruct a different axis set are rejected at handshake.
		env.SetObjectives(c.spec)
	}
	c.fleet, err = dist.StartFleet(env, dist.FleetOptions{
		Workers: c.workers, Listen: c.listen,
		WorkerParallel: c.parallel,
		SimTimeout:     c.res.SimTimeout,
		Obs:            c.obs.Reg,
	})
	if err != nil {
		fatal(err)
	}
	// -progress and /tunez count sims as remote results: with a fleet
	// backend the validator counts each cold key there once, whichever
	// worker measured it. Remote workers' own sim counts arrive only as
	// {worker="..."} series, so the local counter would read 0.
	c.obs.Tune.SetSims(c.obs.Reg.Counter(core.MetricRemoteResults))
	fleet := c.fleet
	c.obs.SetStatus(func() any { return fleet.Status() })
	if c.listen != "" {
		fmt.Fprintf(os.Stderr, "autoblox: accepting workers on %s\n", c.fleet.Addr())
	}
}

// closeFleet shuts the fleet down (nil-safe; deferred by subcommands).
func (c *commonFlags) closeFleet() {
	if c.fleet != nil {
		c.fleet.Close()
	}
}

// learnStudied trains on the seven studied categories. Streaming
// factories keep the training traces lazy: clustering re-derives the
// requests from the seed, and only the validator holds one copy of
// each trace it simulates.
func learnStudied(fw *autoblox.Framework, c *commonFlags) {
	var factories []autoblox.SourceFactory
	for _, cat := range workload.Studied() {
		f, err := workload.Factory(cat, workload.Options{Requests: c.requests, Seed: c.seed})
		if err != nil {
			fatal(err)
		}
		factories = append(factories, f)
	}
	if err := fw.LearnWorkloadSources(factories); err != nil {
		fatal(err)
	}
}

func runLearn(args []string) {
	fs := flag.NewFlagSet("learn", flag.ExitOnError)
	c := registerCommon(fs)
	fs.Parse(args)
	defer c.setupObs()()
	fw := c.framework(false)
	defer fw.Close()
	defer c.closeFleet()
	learnStudied(fw, c)
	fmt.Printf("learned %d workload clusters into %s: %v\n",
		len(fw.Workloads()), c.db, fw.Workloads())
}

func runRecommend(args []string) {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	c := registerCommon(fs)
	c.res.RegisterCheckpoint(fs)
	tracePath := fs.String("blktrace", "", "blktrace file to recommend for ('-' = stdin)")
	cat := fs.String("workload", "", "or: synthesize this workload category")
	fs.Parse(args)

	defer c.setupObs()()
	fw := c.framework(false)
	defer fw.Close()
	defer c.closeFleet()
	learnStudied(fw, c)
	fw.SetProgress(c.obs.Tune.Update)
	fw.SetFrontProgress(c.obs.Tune.UpdateFront)
	fw.SetCheckpointHook(c.obs.Tune.MarkCheckpoint)

	var tr *autoblox.Trace
	var err error
	switch {
	case *cat != "":
		tr = workload.MustGenerate(workload.Category(*cat), workload.Options{Requests: c.requests, Seed: c.seed + 1})
	case *tracePath == "-":
		tr, err = trace.ParseBlktrace(os.Stdin)
	case *tracePath != "":
		var f *os.File
		if f, err = os.Open(*tracePath); err == nil {
			defer f.Close()
			tr, err = trace.ParseBlktrace(f)
		}
	default:
		fatal(fmt.Errorf("recommend: need -blktrace or -workload"))
	}
	if err != nil {
		fatal(err)
	}

	ctx, stop := cliobs.SignalContext()
	defer stop()
	t0 := time.Now()
	rec, err := fw.RecommendContext(ctx, tr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cluster: %s (distance %.2f, new=%v)\n", rec.Assignment.Label, rec.Assignment.Distance, rec.Assignment.IsNew)
	if rec.FromCache {
		fmt.Println("served from AutoDB (previously learned)")
	} else {
		fmt.Printf("learned in %v, %d iterations, %d simulations\n",
			time.Since(t0).Round(time.Millisecond), rec.Tune.Iterations, rec.Tune.SimRuns)
	}
	fmt.Printf("grade: %.4f\nconfig: %s\n", rec.Grade, fw.DescribeConfig(rec.Config))
	printFront(c, fw, rec.Tune.Front, rec.Tune.Hypervolume)
}

func runTune(args []string) {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	c := registerCommon(fs)
	c.res.RegisterCheckpoint(fs)
	target := fs.String("target", "Database", "target workload category")
	verbose := fs.Bool("v", false, "print per-iteration progress")
	fs.Parse(args)

	defer c.setupObs()()
	fw := c.framework(false)
	defer fw.Close()
	defer c.closeFleet()
	learnStudied(fw, c)
	c.obs.Tune.Begin(*target, c.iters)
	fw.SetCheckpointHook(c.obs.Tune.MarkCheckpoint)
	fw.SetFrontProgress(c.obs.Tune.UpdateFront)
	fw.SetProgress(func(iter int, best float64) {
		c.obs.Tune.Update(iter, best)
		if *verbose {
			fmt.Fprintf(os.Stderr, "  iteration %3d: best grade %.4f\n", iter+1, best)
		}
	})
	ctx, stop := cliobs.SignalContext()
	defer stop()
	res, err := fw.TuneContext(ctx, *target)
	if errors.Is(err, autoblox.ErrInterrupted) && c.res.Checkpoint != "" {
		fmt.Fprintf(os.Stderr, "autoblox: %v\nautoblox: checkpoint saved; rerun with -resume to continue\n", err)
		os.Exit(1)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("target %s: grade %.4f after %d iterations (%d sims, %v, converged=%v)\n",
		*target, res.BestGrade, res.Iterations, res.SimRuns,
		res.Elapsed.Round(time.Millisecond), res.Converged)
	fmt.Println("config:", fw.DescribeConfig(res.Best))
	printFront(c, fw, res.Front, res.Hypervolume)
}

func runPrune(args []string) {
	fs := flag.NewFlagSet("prune", flag.ExitOnError)
	c := registerCommon(fs)
	target := fs.String("target", "Database", "target workload category")
	fs.Parse(args)

	defer c.setupObs()()
	fw := c.framework(false)
	defer fw.Close()
	defer c.closeFleet()
	learnStudied(fw, c)
	ctx, stop := cliobs.SignalContext()
	defer stop()
	coarse, fine, err := fw.PruneContext(ctx, *target, autoblox.PruneOptions{Seed: c.seed})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("coarse pruning: %d insensitive parameters: %v\n",
		len(coarse.Insensitive), coarse.Insensitive)
	fmt.Printf("fine pruning: pruned %v\n", fine.Pruned)
	fmt.Printf("tuning order: %v\n", fine.Order)
}

func runWhatIf(args []string) {
	fs := flag.NewFlagSet("whatif", flag.ExitOnError)
	c := registerCommon(fs)
	target := fs.String("target", "WebSearch", "target workload category")
	latGoal := fs.Float64("latency", 0, "latency-reduction goal (e.g. 3 = 3x)")
	tputGoal := fs.Float64("throughput", 0, "throughput-gain goal (e.g. 3 = 3x)")
	fs.Parse(args)

	defer c.setupObs()()
	fw := c.framework(true)
	defer fw.Close()
	defer c.closeFleet()
	learnStudied(fw, c)
	c.obs.Tune.Begin(*target, c.iters)
	fw.SetProgress(c.obs.Tune.Update)
	fw.SetFrontProgress(c.obs.Tune.UpdateFront)
	ctx, stop := cliobs.SignalContext()
	defer stop()
	res, err := fw.WhatIfContext(ctx, autoblox.WhatIfGoal{
		Target: *target, LatencyReduction: *latGoal, ThroughputGain: *tputGoal,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("goal achieved: %v (latency %.2fx, throughput %.2fx) in %d iterations\n",
		res.Achieved, res.LatencySpeedup, res.ThroughputSpeedup, res.Iterations)
	for name, v := range res.CriticalParams {
		fmt.Printf("  %-22s %g\n", name, v)
	}
	printFront(c, fw, res.Front, res.Hypervolume)
}

// printFront renders a Pareto front as a table (one row per
// non-dominated configuration, trade-off axes first, then the full
// config description) and, when requested, as JSON.
func printFront(c *commonFlags, fw *autoblox.Framework, front []autoblox.FrontPoint, hv float64) {
	if len(front) == 0 {
		return
	}
	fmt.Printf("pareto front (%s): %d configurations, hypervolume %.3f\n",
		c.spec, len(front), hv)
	fmt.Printf("  %3s  %8s  %9s  %12s  %7s  %7s\n", "#", "grade", "power(W)", "lifetime", "lat", "tput")
	for i, p := range front {
		fmt.Printf("  %3d  %8.4f  %9.3f  %12s  %6.2fx  %6.2fx\n",
			i+1, p.Grade, p.PowerWatts, lifetimeString(p.LifetimeNS),
			p.LatencySpeedup, p.ThroughputSpeedup)
		fmt.Printf("       %s\n", fw.DescribeConfig(p.Cfg))
	}
	if c.frontJSON != "" {
		writeFrontJSON(c.frontJSON, c.spec, front, hv)
	}
}

// lifetimeString renders the lifetime axis for humans; 0 means the run
// observed no wear at all.
func lifetimeString(ns int64) string {
	if ns <= 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%.1fd", float64(ns)/float64(24*time.Hour))
}

// writeFrontJSON emits the front in machine-readable form ('-' =
// stdout).
func writeFrontJSON(path string, spec autoblox.ObjectiveSpec, front []autoblox.FrontPoint, hv float64) {
	report := struct {
		Objectives  string                `json:"objectives"`
		Hypervolume float64               `json:"hypervolume"`
		Front       []autoblox.FrontPoint `json:"front"`
	}{spec.String(), hv, front}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	if path == "-" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autoblox:", err)
	os.Exit(1)
}
