// Command experiments regenerates the paper's tables and figures on the
// Go reproduction.
//
// Usage:
//
//	experiments [-scale default|paper] [-requests N] [-iters N] [-seed N] [-only id1,id2,...] [-csv dir]
//
// -list prints the experiment ids in print order, and -only prints just
// the sections it names. -csv also writes the data behind each printed
// section; sections printed from one build share its CSV files.
//
// The observability flags -metrics <file>, -trace <file> (Chrome
// trace_event JSONL), -pprof <addr> and -progress are also accepted,
// plus the resilience flags -sim-timeout, -cache-dir, -checkpoint and
// -resume (checkpoints are written per tuning target by suffixing the
// target name).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"autoblox/internal/cliobs"
	"autoblox/internal/dist"
	"autoblox/internal/experiments"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/workload"
)

func main() {
	scaleName := flag.String("scale", "default", "experiment scale: default or paper")
	requests := flag.Int("requests", 0, "override trace length (requests per workload)")
	iters := flag.Int("iters", 0, "override tuner max iterations")
	seed := flag.Int64("seed", 0, "override RNG seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent validation simulations")
	workers := flag.Int("workers", 0, "in-process fleet: spawn N loopback sim workers (0 = local pool)")
	listen := flag.String("listen", "", "accept remote autobloxd-worker connections on this address")
	objectives := flag.String("objectives", "", "objective axes, comma-separated from perf,power,lifetime (empty = scalar grade)")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	csvDir := flag.String("csv", "", "also export artifact data as CSV into this directory")
	list := flag.Bool("list", false, "list experiment ids and exit")
	obsFlags := cliobs.Register(flag.CommandLine)
	resFlags := cliobs.RegisterResilience(flag.CommandLine)
	resFlags.RegisterCheckpoint(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), " "))
		return
	}

	scale := experiments.DefaultScale()
	if *scaleName == "paper" {
		scale = experiments.PaperScale()
	}
	if *requests > 0 {
		scale.Requests = *requests
	}
	if *iters > 0 {
		scale.MaxIterations = *iters
	}
	if *seed != 0 {
		scale.Seed = *seed
	}
	spec, err := ssdconf.ParseObjectiveSpec(*objectives)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -objectives:", err)
		os.Exit(1)
	}
	scale.Objectives = spec
	scale.Parallel = *parallel
	scale.SimTimeout = resFlags.SimTimeout
	scale.Checkpoint = resFlags.Checkpoint
	scale.Resume = resFlags.Resume
	ctx, stop := cliobs.SignalContext()
	defer stop()
	scale.Ctx = ctx

	cleanup, err := obsFlags.Setup(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer cleanup()
	scale.Obs = obsFlags.Reg

	persist, err := resFlags.OpenPersistentCache(obsFlags.Reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if persist != nil {
		defer persist.Close()
		scale.Persist = persist
	}

	if *workers > 0 || *listen != "" {
		// The fleet environment spans every built-in category under the
		// default constraints; experiment envs with other constraint sets
		// or what-if bounds fall back to the local pool automatically.
		specs := make(map[string][]dist.WorkloadSpec)
		for _, cat := range workload.All() {
			specs[string(cat)] = []dist.WorkloadSpec{{Category: string(cat), Requests: scale.Requests, Seed: scale.Seed}}
		}
		env, err := dist.NewEnv(ssdconf.DefaultConstraints(), false, ssd.FaultProfile{}, specs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if !spec.Scalar() {
			env.SetObjectives(spec)
		}
		fleet, err := dist.StartFleet(env, dist.FleetOptions{
			Workers: *workers, Listen: *listen,
			WorkerParallel: *parallel,
			SimTimeout:     resFlags.SimTimeout,
			Obs:            obsFlags.Reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer fleet.Close()
		// -progress keeps counting local sims (unlike autoblox tune, which
		// counts remote results): experiment envs outside the fleet's
		// constraints run on the local pool in the same process.
		obsFlags.SetStatus(func() any { return fleet.Status() })
		if *listen != "" {
			fmt.Fprintf(os.Stderr, "experiments: accepting workers on %s\n", fleet.Addr())
		}
		scale.Backend = fleet.Backend()
		scale.BackendEnv = env
	}

	filter := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			filter[strings.TrimSpace(id)] = true
		}
	}

	if err := experiments.RunAllCSV(os.Stdout, scale, filter, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
