// Command ssdsim runs a block I/O trace against an SSD configuration on
// the discrete-event simulator and prints the measured performance and
// energy.
//
// Blktrace files stream through the simulator in constant memory, so
// arbitrarily large traces replay without being loaded into RAM. A file
// whose arrivals turn out unsorted is read again into memory, sorted and
// simulated from there, with a note on stderr:
//
//	ssdsim -config intel750 -trace db.trace
//	tracegen -workload WebSearch | ssdsim -config zssd -trace -
//	ssdsim -config 850pro -workload Database -requests 20000
//	ssdsim -config intel750 -trace huge-100GB.trace          # constant memory
//	ssdsim -config intel750 -workload Database -set fault_rate=0.001 -set fault_die_failures=1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registered on the default mux served by -pprof
	"os"
	"path/filepath"
	"strings"
	"time"

	"autoblox/internal/cliobs"
	"autoblox/internal/obs"
	"autoblox/internal/ssd"
	"autoblox/internal/trace"
	"autoblox/internal/workload"
)

func main() { os.Exit(run()) }

// run is the whole command. It returns the exit status instead of
// calling os.Exit, so its deferred clean-up (the spooled copy of stdin)
// runs on every path.
func run() int {
	config := flag.String("config", "intel750", "device config: intel750, 850pro, zssd, default, or a JSON file path")
	tracePath := flag.String("trace", "", "trace file ('-' = stdin)")
	format := flag.String("format", "blktrace", "trace format: blktrace or msr")
	cat := flag.String("workload", "", "generate a synthetic workload instead of reading a trace")
	requests := flag.Int("requests", 20000, "requests when generating a workload")
	seed := flag.Int64("seed", 42, "generator seed")
	trimRatio := flag.Float64("trim", 0, "fraction of generated writes emitted as TRIMs (with -workload)")
	genStreams := flag.Int("tagstreams", 0, "stamp generated requests with stream tags 1..N (with -workload)")
	var sets []string
	flag.Func("set", "set a device field, `key=value`, after -config loads the device (repeatable); keys and\n"+
		"units are the device file's (MB, KB or µs where the key says so, enums by registry name):"+ssd.DescribeFields(), func(s string) error {
		sets = append(sets, s)
		return nil
	})
	jsonOut := flag.Bool("json", false, "print the report as JSON instead of text")
	metrics := flag.String("metrics", "", "write simulator metrics to this file (.json = JSON snapshot, else Prometheus text)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "ssdsim: pprof:", err)
			}
		}()
	}

	var dev ssd.DeviceParams
	switch strings.ToLower(*config) {
	case "intel750":
		dev = ssd.Intel750()
	case "850pro":
		dev = ssd.Samsung850Pro()
	case "zssd":
		dev = ssd.SamsungZSSD()
	case "default":
		dev = ssd.DefaultParams()
	default:
		var err error
		dev, err = ssd.LoadParams(*config)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssdsim: %v (not a known name or a readable device JSON)\n", err)
			return 2
		}
	}
	for _, s := range sets {
		if err := ssd.SetField(&dev, s); err != nil {
			fmt.Fprintln(os.Stderr, "ssdsim:", err)
			return 2
		}
	}
	if err := dev.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ssdsim:", err)
		return 2
	}
	msr := strings.EqualFold(*format, "msr")
	if !msr && !strings.EqualFold(*format, "blktrace") {
		fmt.Fprintf(os.Stderr, "ssdsim: unknown -format %q (valid: blktrace, msr)\n", *format)
		return 2
	}

	var src trace.Source
	var file *os.File // the trace file, or the spooled copy of stdin
	var err error
	cleanup := func() {}
	switch {
	case *cat != "":
		src, err = workload.NewSource(workload.Category(*cat), workload.Options{
			Requests: *requests, Seed: *seed, TrimRatio: *trimRatio, Streams: *genStreams,
		})
	case *tracePath != "":
		src, file, cleanup, err = openTraceSource(*tracePath, msr)
	default:
		fmt.Fprintln(os.Stderr, "ssdsim: need -trace or -workload")
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssdsim:", err)
		return 1
	}
	defer cleanup()

	sim, err := ssd.NewSimulator(dev)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssdsim:", err)
		return 1
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		sim.Obs = reg
	}
	res, err := sim.RunSource(src)
	if errors.Is(err, trace.ErrUnsorted) {
		fmt.Fprintln(os.Stderr, "ssdsim: arrivals out of order; sorting the trace in memory")
		res, err = runSorted(sim, file)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssdsim:", err)
		return 1
	}
	if reg != nil {
		cliobs.WriteMetrics(reg, *metrics)
	}
	if *jsonOut {
		if err := printJSONReport(dev, res); err != nil {
			fmt.Fprintln(os.Stderr, "ssdsim:", err)
			return 1
		}
		return 0
	}

	fmt.Printf("device:   %s, %dch x %dchip x %ddie x %dplane, %s page %dB, cache %dMB, CMT %dMB, QD %d\n",
		dev.HostInterface, dev.Channels, dev.ChipsPerChannel, dev.DiesPerChip, dev.PlanesPerDie,
		dev.FlashType, dev.PageSizeBytes, dev.DataCacheBytes>>20, dev.CMTBytes>>20, dev.QueueDepth)
	fmt.Printf("policies: gc %s, cache %s, alloc %s, iface %s\n",
		dev.GCPolicy, dev.CachePolicy, dev.PlaneAllocScheme, dev.HostIfcModel)
	fmt.Printf("capacity: %.1f GB raw / %.1f GB usable\n",
		float64(dev.CapacityBytes())/1e9, float64(dev.UsableBytes())/1e9)
	fmt.Printf("requests: %d over %v\n", res.Requests, res.Makespan.Round(time.Millisecond))
	fmt.Printf("latency:  avg %v  p50 %v  p95 %v  p99 %v  p99.9 %v\n",
		res.AvgLatency.Round(time.Microsecond), res.P50Latency.Round(time.Microsecond),
		res.P95Latency.Round(time.Microsecond), res.P99Latency.Round(time.Microsecond),
		res.P999Latency.Round(time.Microsecond))
	fmt.Printf("tput:     %.1f MB/s (%.0f IOPS)\n", res.ThroughputBps/1e6, res.IOPS)
	fmt.Printf("energy:   %.3f J (%.2f W avg)\n", res.EnergyJoules, res.AvgPowerWatts)
	fmt.Printf("flash:    %d reads, %d programs, %d erases, WA %.2f, %d GC runs\n",
		res.UserReads, res.UserPrograms, res.Erases, res.WriteAmplification, res.GCRuns)
	fmt.Printf("caches:   data %.1f%% hit, CMT %.1f%% hit\n",
		hitPct(res.CacheHits, res.CacheMisses), hitPct(res.CMTHits, res.CMTMisses))
	fmt.Printf("channels: %.1f%% utilized\n", res.ChannelUtilization*100)
	if res.UserTrims > 0 || dev.HostIfcModel != ssd.IfcConventional {
		fmt.Printf("hostifc:  %d trims (%d pages invalidated), %d WP violations, %d zone resets\n",
			res.UserTrims, res.TrimmedPages, res.WPViolations, res.ZoneResets)
	}
	if dev.Faults.Enabled() {
		fmt.Printf("faults:   %d program / %d erase failures, %d read retries (%d ECC soft decodes), %d blocks retired (%d factory-bad)\n",
			res.ProgramFailures, res.EraseFailures, res.ReadRetries, res.ECCSoftDecodes,
			res.RetiredBlocks, res.FactoryBadBlocks)
	}
	lifetime := "unbounded"
	if res.Wear.MaxEraseCount > 0 {
		lifetime = res.Wear.ProjectedLifetime.Round(time.Hour).String()
	}
	fmt.Printf("wear:     max %d / mean %.1f erases (imbalance %.2f), P/E limit %d, projected lifetime %s\n",
		res.Wear.MaxEraseCount, res.Wear.MeanEraseCount, res.Wear.Imbalance,
		res.Wear.PECycleLimit, lifetime)
	return 0
}

// jsonReport is the machine-readable ssdsim report: the fields tuning
// and fleet tooling consume, including the power and wear axes the
// multi-objective tuner optimizes.
type jsonReport struct {
	Device struct {
		Interface string  `json:"interface"`
		Flash     string  `json:"flash"`
		Channels  int     `json:"channels"`
		RawGB     float64 `json:"raw_gb"`
		UsableGB  float64 `json:"usable_gb"`
	} `json:"device"`
	Requests           int     `json:"requests"`
	MakespanNS         int64   `json:"makespan_ns"`
	AvgLatencyNS       int64   `json:"avg_latency_ns"`
	P50LatencyNS       int64   `json:"p50_latency_ns"`
	P95LatencyNS       int64   `json:"p95_latency_ns"`
	P99LatencyNS       int64   `json:"p99_latency_ns"`
	P999LatencyNS      int64   `json:"p999_latency_ns"`
	ThroughputBps      float64 `json:"throughput_bps"`
	IOPS               float64 `json:"iops"`
	EnergyJoules       float64 `json:"energy_joules"`
	AvgPowerWatts      float64 `json:"avg_power_watts"`
	WriteAmplification float64 `json:"write_amplification"`
	GCRuns             int     `json:"gc_runs"`
	Erases             int64   `json:"erases"`
	MaxEraseCount      int64   `json:"max_erase_count"`
	MeanEraseCount     float64 `json:"mean_erase_count"`
	WearImbalance      float64 `json:"wear_imbalance"`
	PECycleLimit       int64   `json:"pe_cycle_limit"`
	// ProjectedLifetimeNS is 0 when the run erased nothing (the
	// endurance model projects no wear-out: unbounded lifetime).
	ProjectedLifetimeNS int64 `json:"projected_lifetime_ns"`
}

// printJSONReport emits the selected-fields JSON report on stdout.
func printJSONReport(dev ssd.DeviceParams, res *ssd.Result) error {
	var rep jsonReport
	rep.Device.Interface = dev.HostInterface.String()
	rep.Device.Flash = dev.FlashType.String()
	rep.Device.Channels = dev.Channels
	rep.Device.RawGB = float64(dev.CapacityBytes()) / 1e9
	rep.Device.UsableGB = float64(dev.UsableBytes()) / 1e9
	rep.Requests = res.Requests
	rep.MakespanNS = res.Makespan.Nanoseconds()
	rep.AvgLatencyNS = res.AvgLatency.Nanoseconds()
	rep.P50LatencyNS = res.P50Latency.Nanoseconds()
	rep.P95LatencyNS = res.P95Latency.Nanoseconds()
	rep.P99LatencyNS = res.P99Latency.Nanoseconds()
	rep.P999LatencyNS = res.P999Latency.Nanoseconds()
	rep.ThroughputBps = res.ThroughputBps
	rep.IOPS = res.IOPS
	rep.EnergyJoules = res.EnergyJoules
	rep.AvgPowerWatts = res.AvgPowerWatts
	rep.WriteAmplification = res.WriteAmplification
	rep.GCRuns = res.GCRuns
	rep.Erases = res.Erases
	rep.MaxEraseCount = res.Wear.MaxEraseCount
	rep.MeanEraseCount = res.Wear.MeanEraseCount
	rep.WearImbalance = res.Wear.Imbalance
	rep.PECycleLimit = res.Wear.PECycleLimit
	if res.Wear.MaxEraseCount > 0 {
		rep.ProjectedLifetimeNS = res.Wear.ProjectedLifetime.Nanoseconds()
	}
	b, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(b, '\n'))
	return err
}

// openTraceSource opens a trace file as a rewindable Source and returns
// the file with it; stdin is spooled to a temporary file first so the
// simulator's warm-up and measured sweeps can rewind it. Blktrace files
// stream straight from disk in constant memory. MSR traces use the
// buffered parser, which also sorts out-of-order arrivals.
func openTraceSource(path string, msr bool) (src trace.Source, f *os.File, cleanup func(), err error) {
	name := filepath.Base(path)
	if path == "-" {
		name = "stdin"
		f, err = spoolStdin()
		cleanup = func() { f.Close(); os.Remove(f.Name()) }
	} else {
		f, err = os.Open(path)
		cleanup = func() { f.Close() }
	}
	if err != nil {
		return nil, nil, func() {}, err
	}
	if msr {
		tr, err := trace.ParseMSR(f)
		if err != nil {
			cleanup()
			return nil, nil, func() {}, err
		}
		return tr.Source(), f, cleanup, nil
	}
	return trace.NewBlktraceSource(f, name), f, cleanup, nil
}

// runSorted simulates a blktrace file through ParseBlktrace, which
// buffers it and sorts its arrivals.
func runSorted(sim *ssd.Simulator, f *os.File) (*ssd.Result, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	tr, err := trace.ParseBlktrace(f)
	if err != nil {
		return nil, err
	}
	return sim.RunSource(tr.Source())
}

// spoolStdin copies stdin to a temporary file so it becomes seekable.
func spoolStdin() (*os.File, error) {
	tmp, err := os.CreateTemp("", "ssdsim-stdin-*.trace")
	if err != nil {
		return nil, err
	}
	if _, err := io.Copy(tmp, os.Stdin); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	return tmp, nil
}

func hitPct(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}
