// Command autobloxd-worker joins a distributed validation fleet: it
// dials a coordinator (an autoblox or experiments run started with
// -listen), reconstructs the measurement environment from the
// handshake, and serves leased simulation jobs until the coordinator
// closes. It holds one lease per free simulation slot (-parallel) and
// returns each result as soon as its simulation finishes.
//
// Usage:
//
//	autobloxd-worker -connect host:6901 [-name w1] [-parallel N]
//
// The worker refuses to serve when its locally derived parameter space
// fingerprint disagrees with the coordinator's (stale binary), so a
// mixed-version fleet can never corrupt a tuning run. The observability
// flags -metrics/-trace/-pprof/-http and the resilience flags
// -sim-timeout/-cache-dir are also accepted. With -metrics
// or -http set, the worker also pushes delta-encoded metric snapshots
// to the coordinator after each round of results, where they aggregate
// into the fleet registry under this worker's name.
//
// With -reconnect the worker survives coordinator restarts and network
// partitions: on any transport failure it redials with jittered
// exponential backoff (up to -max-backoff) and resumes via a fresh
// handshake, reusing its simulation environment when the space is
// unchanged. With -grace > 0, SIGTERM/SIGINT drains instead of
// aborting: running jobs finish, final stats are pushed, and a
// goodbye frame tells the coordinator the departure is deliberate.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"autoblox/internal/cliobs"
	"autoblox/internal/dist"
)

func main() {
	connect := flag.String("connect", "", "coordinator address (host:port) to pull work from")
	name := flag.String("name", "", "worker name reported to the coordinator (default <hostname>/<pid>)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "simulation slots: max concurrent simulations, and max leases held, on this worker")
	reconnect := flag.Bool("reconnect", false, "redial the coordinator after transport failures (jittered exponential backoff)")
	maxBackoff := flag.Duration("max-backoff", 5*time.Second, "reconnect backoff ceiling")
	grace := flag.Duration("grace", 0, "graceful shutdown window: finish in-flight work after SIGTERM before disconnecting (0 = abort immediately)")
	obsFlags := cliobs.Register(flag.CommandLine)
	resFlags := cliobs.RegisterResilience(flag.CommandLine)
	flag.Parse()
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "usage: autobloxd-worker -connect host:port [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	cleanup, err := obsFlags.Setup(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autobloxd-worker:", err)
		os.Exit(1)
	}
	defer cleanup()

	persist, err := resFlags.OpenPersistentCache(obsFlags.Reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autobloxd-worker:", err)
		os.Exit(1)
	}
	if persist != nil {
		defer persist.Close()
	}

	ctx, stop := cliobs.SignalContext()
	defer stop()

	w := &dist.Worker{
		Name:         *name,
		Parallel:     *parallel,
		SimTimeout:   resFlags.SimTimeout,
		Obs:          obsFlags.Reg,
		Persist:      persist,
		Grace:        *grace,
		ReconnectMax: *maxBackoff,
		// A remote worker owns its registry, so pushing delta snapshots
		// to the coordinator's fleet registry is safe and on by default.
		PushStats: obsFlags.Reg != nil,
	}
	if *reconnect {
		err = w.RunReconnect(ctx, *connect)
	} else {
		err = w.Run(ctx, *connect)
	}
	switch {
	case err == nil:
		fmt.Printf("coordinator closed; measured %d jobs in %v\n", w.Jobs(), w.Busy().Round(0))
	case errors.Is(err, dist.ErrDrained):
		fmt.Printf("drained after shutdown signal; measured %d jobs in %v\n", w.Jobs(), w.Busy().Round(0))
	case errors.Is(err, dist.ErrSpaceMismatch):
		fmt.Fprintln(os.Stderr, "autobloxd-worker: rejected:", err)
		fmt.Fprintln(os.Stderr, "hint: worker and coordinator binaries derive different parameter spaces; rebuild both from the same source")
		os.Exit(1)
	case errors.Is(err, dist.ErrVersionMismatch):
		fmt.Fprintln(os.Stderr, "autobloxd-worker: rejected:", err)
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "autobloxd-worker:", err)
		os.Exit(1)
	}
}
