package cliobs

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"autoblox/internal/core"
	"autoblox/internal/dist"
	"autoblox/internal/obs"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/workload"
)

// TestRegisterHelpCoversEmittedFamilies fills a registry the way an
// instrumented run does — a validator measuring through a loopback
// fleet backed by a persistent cache, and a local batch, both on
// devices that inject faults — and checks that every family in the
// Prometheus export carries registered HELP text, not the generic
// fallback. Families no single measurement emits (coalesced waits need
// concurrent duplicate callers, the front gauges a Pareto tune) are
// recorded by hand.
func TestRegisterHelpCoversEmittedFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	registerHelp(reg)
	ctx := context.Background()
	faults := ssd.FaultProfile{Rate: 0.01, Seed: 7}

	specs := map[string][]dist.WorkloadSpec{}
	for _, cat := range []workload.Category{workload.Database, workload.WebSearch} {
		specs[string(cat)] = []dist.WorkloadSpec{{Category: string(cat), Requests: 600, Seed: 21}}
	}
	env, err := dist.NewEnv(ssdconf.DefaultConstraints(), false, faults, specs)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := dist.StartFleet(env, dist.FleetOptions{Workers: 1, WorkerParallel: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	persist, err := core.OpenPersistentCache(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer persist.Close()
	remote, err := dist.NewValidator(env)
	if err != nil {
		t.Fatal(err)
	}
	remote.Backend, remote.Obs, remote.Persist = fleet.Backend(), reg, persist
	cfg := remote.Space.FromDevice(ssd.Intel750())
	if err := remote.MeasureBatch(ctx, []ssdconf.Config{cfg}, remote.Clusters()); err != nil {
		t.Fatal(err)
	}
	local, err := dist.NewValidator(env)
	if err != nil {
		t.Fatal(err)
	}
	local.Obs, local.Parallel = reg, 2 // a pool of two records per-worker busy time
	if err := local.MeasureBatch(ctx, []ssdconf.Config{cfg}, local.Clusters()); err != nil {
		t.Fatal(err)
	}
	reg.Counter(core.MetricCoalesced).Inc()
	reg.Histogram(core.MetricDedupWait).Record(1000)
	reg.Gauge(core.MetricFrontSize).Set(3)
	reg.Gauge(core.MetricFrontHypervolume).Set(0.5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if generic := regexp.MustCompile(`(?m)^# HELP \S+ autoblox metric .*$`).FindAllString(out, -1); len(generic) > 0 {
		t.Errorf("families exported with the generic HELP text:\n%s", strings.Join(generic, "\n"))
	}
	// The measurement must really have emitted the families it stands
	// in for, or the check above proves nothing about them.
	for _, fam := range []string{
		core.MetricSimRuns, core.MetricSimTime, core.MetricQueueWait, core.MetricRemoteResults,
		core.MetricPersistMisses,
		dist.MetricLeasesGranted, dist.MetricWorkersConnected, family(dist.MetricWorkerBusy("")),
		ssd.MetricRequestLatency, ssd.MetricGCPause, ssd.MetricChannelStall,
		ssd.MetricFaultProgramFailures, ssd.MetricFaultEraseFailures, ssd.MetricFaultReadRetries,
		ssd.MetricFaultECCSoftDecodes, ssd.MetricFaultRetiredBlocks,
	} {
		if !strings.Contains(out, "# HELP "+fam+" ") {
			t.Errorf("no %s family in the export of an instrumented measurement", fam)
		}
	}
}
