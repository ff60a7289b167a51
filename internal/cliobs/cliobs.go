// Package cliobs wires the observability layer (internal/obs) into
// command-line binaries: it registers the shared -metrics, -trace,
// -pprof, -progress and -http flags and activates the requested
// observers. With no flags set the run is uninstrumented and the hooks
// cost nothing.
package cliobs

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registered on the default mux served by -pprof
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"autoblox/internal/core"
	"autoblox/internal/dist"
	"autoblox/internal/obs"
	"autoblox/internal/obs/httpobs"
	"autoblox/internal/ssd"
)

// Flags holds the parsed observability flags and, after Setup, the live
// observers (nil when not requested).
type Flags struct {
	Metrics  string
	Trace    string
	Pprof    string
	Progress bool
	HTTP     string

	Reg    *obs.Registry
	Prog   *obs.Progress
	Tune   *obs.TuneStatus
	Flight *obs.FlightRecorder

	status atomic.Pointer[func() any]
}

// Register adds the observability flags to a flag set.
func Register(fs *flag.FlagSet) *Flags {
	o := &Flags{}
	fs.StringVar(&o.Metrics, "metrics", "", "write metrics to this file at exit (.json = JSON snapshot, else Prometheus text)")
	fs.StringVar(&o.Trace, "trace", "", "write a Chrome trace_event JSONL file (open in chrome://tracing or Perfetto)")
	fs.StringVar(&o.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.BoolVar(&o.Progress, "progress", false, "print a sims/sec + ETA ticker to stderr")
	fs.StringVar(&o.HTTP, "http", "", "serve live introspection on this address: /metrics /statusz /tunez /eventz /debug/pprof")
	return o
}

// SetStatus installs the /statusz fleet-status provider (e.g. the
// distributed backend's status snapshot). Safe to call before or after
// Setup, from any goroutine.
func (o *Flags) SetStatus(fn func() any) {
	if o != nil {
		o.status.Store(&fn)
	}
}

// Setup activates the requested observers and returns a cleanup to
// defer. iters seeds the progress ETA with the expected iteration count
// (0 disables the ETA).
func (o *Flags) Setup(iters int) (cleanup func(), err error) {
	var closers []func()
	if o.Pprof != "" {
		go func() {
			if err := http.ListenAndServe(o.Pprof, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof:", err)
			}
		}()
	}
	if o.Trace != "" {
		f, err := os.Create(o.Trace)
		if err != nil {
			return nil, err
		}
		bw := bufio.NewWriter(f)
		tr := obs.NewTracer(bw)
		obs.SetTracer(tr)
		closers = append(closers, func() {
			obs.SetTracer(nil)
			if err := tr.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
			}
			bw.Flush()
			f.Close()
		})
	}
	instrumented := o.Metrics != "" || o.Progress || o.HTTP != ""
	if instrumented {
		o.Reg = obs.NewRegistry()
		registerHelp(o.Reg)
	}
	// One TuneStatus backs both the -progress ticker and /tunez, so the
	// two surfaces render the same snapshot.
	o.Tune = obs.NewTuneStatus()
	o.Tune.SetSims(o.Reg.Counter(core.MetricSimRuns))
	o.Tune.SetTotal(iters)
	if instrumented || o.Trace != "" {
		o.Flight = obs.NewFlightRecorder(1024)
		obs.SetFlightRecorder(o.Flight)
		closers = append(closers, func() { obs.SetFlightRecorder(nil) })
		closers = append(closers, watchSIGQUIT(o.Flight))
	}
	if o.Progress {
		o.Prog = obs.NewProgress(os.Stderr, o.Tune, 0)
		o.Prog.Start()
		closers = append(closers, o.Prog.Stop)
	}
	if o.HTTP != "" {
		srv, err := httpobs.Start(o.HTTP, httpobs.Options{
			Registry: o.Reg,
			Tune:     o.Tune,
			Flight:   o.Flight,
			Status: func() any {
				if fn := o.status.Load(); fn != nil {
					return (*fn)()
				}
				return nil
			},
		})
		if err != nil {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "introspection: http://%s/\n", srv.Addr())
		closers = append(closers, func() { srv.Close() })
	}
	if o.Metrics != "" {
		closers = append(closers, func() { WriteMetrics(o.Reg, o.Metrics) })
	}
	return func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}, nil
}

// watchSIGQUIT dumps the flight recorder to stderr whenever the process
// receives SIGQUIT, and returns a stop function.
func watchSIGQUIT(rec *obs.FlightRecorder) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-ch:
				rec.WriteText(os.Stderr)
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

// registerHelp attaches HELP text to the metric families the framework
// emits, keeping the Prometheus export lint-clean. Keys are the metric
// name constants, so renaming a family breaks the build here.
func registerHelp(reg *obs.Registry) {
	for name, text := range map[string]string{
		core.MetricSimRuns:                "fresh simulations executed",
		core.MetricCacheHits:              "validations served from the memo cache",
		core.MetricCoalesced:              "validations that joined an in-flight duplicate",
		core.MetricRemoteResults:          "validations measured by remote workers",
		core.MetricSimTime:                "wall-clock nanoseconds per simulation",
		core.MetricQueueWait:              "nanoseconds a fresh simulation waited for a pool slot",
		core.MetricDedupWait:              "nanoseconds a validation waited on an in-flight duplicate",
		core.MetricFrontSize:              "configurations on the current Pareto front",
		core.MetricFrontHypervolume:       "normalized hypervolume of the current Pareto front",
		ssd.MetricRequestLatency:          "simulated request latency in nanoseconds (measured phase)",
		ssd.MetricGCPause:                 "simulated garbage-collection pause nanoseconds",
		ssd.MetricChannelStall:            "simulated nanoseconds a flash transfer waited for its channel",
		ssd.MetricFaultProgramFailures:    "injected page-program failures",
		ssd.MetricFaultEraseFailures:      "injected block-erase failures",
		ssd.MetricFaultReadRetries:        "read-retry steps after injected bit errors",
		ssd.MetricFaultECCSoftDecodes:     "reads recovered by soft-decision ECC",
		ssd.MetricFaultRetiredBlocks:      "blocks retired as bad at the end of a run",
		dist.MetricLeasesGranted:          "job leases granted to workers",
		dist.MetricLeasesExpired:          "job leases that timed out",
		dist.MetricLeasesReassigned:       "expired jobs handed to another worker",
		dist.MetricResultsDup:             "job results discarded as duplicates",
		dist.MetricWorkersConnected:       "workers currently holding a session",
		dist.MetricHandshakeRejects:       "workers rejected during the handshake",
		family(dist.MetricWorkerBusy("")): "per-worker cumulative in-simulation nanoseconds",
		dist.MetricStatsPushes:            "worker metric snapshots absorbed by the coordinator",
		dist.MetricHedgedLeases:           "duplicate leases issued to hedge against stragglers",
		core.MetricPersistHits:            "validations served from the persistent simulation cache",
		core.MetricPersistMisses:          "persistent-cache lookups that missed",
		core.MetricPersistCorrupt:         "persistent-cache records dropped as corrupt",
	} {
		reg.SetHelp(name, text)
	}
}

// family strips the label set from a series name.
func family(series string) string {
	name, _, _ := strings.Cut(series, "{")
	return name
}

// Resilience holds the parsed crash-safety flags shared by the tuning
// binaries: a per-simulation wall-clock budget, the persistent cache
// directory and, where RegisterCheckpoint added them, the
// checkpoint/resume pair.
type Resilience struct {
	SimTimeout time.Duration
	Checkpoint string
	Resume     bool
	CacheDir   string
}

// RegisterResilience adds -sim-timeout and -cache-dir to a flag set.
func RegisterResilience(fs *flag.FlagSet) *Resilience {
	r := &Resilience{}
	fs.DurationVar(&r.SimTimeout, "sim-timeout", 0, "wall-clock budget per validation simulation, e.g. 30s (0 = unlimited)")
	fs.StringVar(&r.CacheDir, "cache-dir", "", "persistent simulation cache directory: measured results survive restarts and crashes")
	return r
}

// RegisterCheckpoint adds -checkpoint and -resume to a flag set. Only
// commands whose run reaches a checkpointing tuner register them.
func (r *Resilience) RegisterCheckpoint(fs *flag.FlagSet) {
	fs.StringVar(&r.Checkpoint, "checkpoint", "", "crash-safe tuning: atomically rewrite this JSON snapshot after every iteration")
	fs.BoolVar(&r.Resume, "resume", false, "resume tuning from -checkpoint (missing file = fresh run)")
}

// OpenPersistentCache opens the -cache-dir persistent cache (nil when
// the flag is unset) with its counters on reg.
func (r *Resilience) OpenPersistentCache(reg *obs.Registry) (*core.PersistentCache, error) {
	if r.CacheDir == "" {
		return nil, nil
	}
	return core.OpenPersistentCache(r.CacheDir, reg)
}

// SignalContext returns a context cancelled on SIGINT/SIGTERM, so an
// interrupted tuning run stops at the next iteration boundary and
// leaves its latest checkpoint consistent on disk. Defer stop.
func SignalContext() (ctx context.Context, stop context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// WriteMetrics dumps a registry snapshot: JSON for .json paths,
// Prometheus text exposition otherwise.
func WriteMetrics(reg *obs.Registry, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metrics:", err)
		return
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		err = reg.WriteJSON(f)
	} else {
		err = reg.WritePrometheus(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "metrics:", err)
	}
}
