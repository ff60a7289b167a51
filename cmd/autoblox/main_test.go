package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"autoblox"
	"autoblox/internal/cliobs"
	"autoblox/internal/dist"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/workload"
)

// TestConstraintsResolveDeviceFlags: -iface and -flash accept the
// registry names in any case and reject anything else with an error
// that names the valid values, instead of silently tuning NVMe/MLC.
func TestConstraintsResolveDeviceFlags(t *testing.T) {
	for _, c := range []struct {
		iface, flash string
		wantIfc      ssd.Interface
		wantFlash    ssd.FlashType
	}{
		{"nvme", "mlc", ssd.NVMe, ssd.MLC},
		{"SATA", "tlc", ssd.SATA, ssd.TLC},
		{"NVMe", "Slc", ssd.NVMe, ssd.SLC},
	} {
		cons, err := (&commonFlags{iface: c.iface, flash: c.flash}).constraints()
		if err != nil || cons.Interface != c.wantIfc || cons.Flash != c.wantFlash {
			t.Fatalf("-iface %s -flash %s = %v/%v, %v; want %v/%v", c.iface, c.flash, cons.Interface, cons.Flash, err, c.wantIfc, c.wantFlash)
		}
	}
	for _, c := range []struct{ iface, flash, want string }{
		{"sas", "mlc", "-iface: ssd: unknown interface \"sas\" (valid: NVMe, SATA)"},
		{"nvme", "qlc", "-flash: ssd: unknown flash type \"qlc\" (valid: SLC, MLC, TLC)"},
	} {
		_, err := (&commonFlags{iface: c.iface, flash: c.flash}).constraints()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("-iface %s -flash %s: error %v, want %q", c.iface, c.flash, err, c.want)
		}
	}
}

// TestRemoteFleetCountsSims: a tune served only by remote workers
// reports its sims on the -progress and /tunez status. The coordinator
// process runs no simulation itself, so the count is the validator's
// remote results, one per cold key.
func TestRemoteFleetCountsSims(t *testing.T) {
	c := &commonFlags{
		obs:      &cliobs.Flags{Metrics: filepath.Join(t.TempDir(), "metrics.prom")},
		res:      &cliobs.Resilience{},
		requests: 600, seed: 42, parallel: 1, listen: "127.0.0.1:0",
	}
	cleanup, err := c.obs.Setup(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	cons := autoblox.DefaultConstraints()
	c.startFleet(false, cons)
	defer c.closeFleet()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wdone := make(chan error, 1)
	go func() { wdone <- (&dist.Worker{Name: "remote", Parallel: 1}).Run(ctx, c.fleet.Addr()) }()

	// A validator over the same studied-category env that startFleet
	// serves, measuring through the fleet as the framework's would.
	specs := make(map[string][]dist.WorkloadSpec)
	for _, cat := range workload.Studied() {
		specs[string(cat)] = []dist.WorkloadSpec{{Category: string(cat), Requests: c.requests, Seed: c.seed}}
	}
	env, err := dist.NewEnv(cons, false, ssd.FaultProfile{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	v, err := dist.NewValidator(env)
	if err != nil {
		t.Fatal(err)
	}
	v.Backend, v.Obs = c.fleet.Backend(), c.obs.Reg
	clusters := v.Clusters()[:2]
	cfg := v.Space.FromDevice(ssd.Intel750())
	if err := v.MeasureBatch(ctx, []ssdconf.Config{cfg}, clusters); err != nil {
		t.Fatal(err)
	}
	if got := c.obs.Tune.Snapshot().Sims; got != int64(len(clusters)) {
		t.Fatalf("status sims = %d, want %d (one per remotely measured key)", got, len(clusters))
	}
	c.closeFleet()
	c.fleet = nil
	if err := <-wdone; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}
