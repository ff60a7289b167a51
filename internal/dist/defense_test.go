package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/core"
	"autoblox/internal/obs"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/workload"
)

// eventsByKind filters a flight recorder's buffer down to one kind.
func eventsByKind(rec *obs.FlightRecorder, kind string) []obs.FlightEvent {
	var out []obs.FlightEvent
	for _, ev := range rec.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// TestHedgedLeaseRescuesStraggler pins the quantile hedging trigger on
// a fake clock. Completions aged 1s..7s are not enough samples: a job
// leased far longer is still not hedged. The eighth completion (aged
// 8s) arms the trigger at the hedgeQuantile of the window, which is the
// 7s sample and not the 8s maximum. A fresh job is then not hedged
// 1ns below 7s and is granted to a second worker at 7s; the duplicate
// grant counts as hedged (not reassigned), a third worker gets nothing
// (hedgeMax caps concurrent leases), and whichever result lands first
// wins while the loser is a duplicate.
func TestHedgedLeaseRescuesStraggler(t *testing.T) {
	rec := obs.NewFlightRecorder(256)
	obs.SetFlightRecorder(rec)
	defer obs.SetFlightRecorder(nil)

	clk := newFakeClock()
	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database)
	coord := NewCoordinator(env, CoordinatorOptions{
		LeaseTTL:     time.Minute, // hedging, not expiry, must fire
		PollInterval: time.Millisecond,
		Clock:        clk,
		Hedge:        true,
	})
	t.Cleanup(coord.Close)
	cfgs := distinctConfigs(t, env.Space(), 9)

	holder := dialFake(t, coord)
	holder.mustAccept("holder", env.SpaceSig)
	probe := dialFake(t, coord)
	probe.mustAccept("probe", env.SpaceSig)
	noLease := func(w *fakeWorker, why string) {
		t.Helper()
		w.send(&Message{Type: MsgLeaseReq, LeaseReq: &LeaseReq{Max: 1}})
		if m := w.recv(); len(m.LeaseGrant.Leases) != 0 {
			t.Fatalf("%s: granted %+v", why, m.LeaseGrant.Leases)
		}
	}
	answer := func(w *fakeWorker, name string, l Lease) {
		t.Helper()
		w.send(&Message{Type: MsgResult, Result: &ResultMsg{Worker: name, Results: []JobResult{
			{LeaseID: l.ID, CfgKey: l.CfgKey, Name: l.Name,
				Perf: autodb.Perf{LatencyNS: 42, ThroughputBps: 1}, SimNS: 1},
		}}})
	}
	// complete runs job i through the holder with a grant→result age of
	// (i+1) seconds.
	complete := func(i int) {
		t.Helper()
		done := measureOne(coord, cfgs[i])
		l := holder.leaseAtLeast(1)[0]
		clk.Advance(time.Duration(i+1) * time.Second)
		answer(holder, "holder", l)
		if err := <-done; err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	for i := 0; i < 7; i++ {
		complete(i)
	}
	// Seven samples: a job leased for 8s (longer than any completion so
	// far) is still not hedged.
	done := measureOne(coord, cfgs[7])
	last := holder.leaseAtLeast(1)[0]
	clk.Advance(8 * time.Second)
	noLease(probe, "hedged with only 7 completions")
	answer(holder, "holder", last)
	if err := <-done; err != nil {
		t.Fatalf("job 7: %v", err)
	}

	// Eight samples (1s..8s): the 0.95 quantile of the window is 7s.
	const threshold = 7 * time.Second
	done = measureOne(coord, cfgs[8])
	leases := holder.leaseAtLeast(1)
	clk.Advance(threshold - time.Nanosecond)
	noLease(probe, "hedged below the threshold")
	if fc := coord.Counters(); fc.Hedged != 0 {
		t.Fatalf("Hedged = %d before the threshold, want 0", fc.Hedged)
	}

	// At the threshold the probe gets a duplicate lease for the same job.
	clk.Advance(time.Nanosecond)
	hedged := probe.leaseAtLeast(1)
	if hedged[0].CfgKey != leases[0].CfgKey || hedged[0].Name != leases[0].Name {
		t.Fatalf("hedge is a different job: %+v vs %+v", hedged[0], leases[0])
	}
	if hedged[0].ID == leases[0].ID {
		t.Fatal("hedged grant reused the primary lease ID")
	}
	fc := coord.Counters()
	if fc.Hedged != 1 {
		t.Fatalf("Hedged = %d, want 1", fc.Hedged)
	}
	if fc.Reassigned != 0 || fc.Expired != 0 {
		t.Fatalf("hedge misattributed: %+v (want no reassignments or expiries)", fc)
	}
	evs := eventsByKind(rec, "lease-hedged")
	if len(evs) != 1 {
		t.Fatalf("lease-hedged events = %d, want 1", len(evs))
	}
	for _, kv := range evs[0].Fields {
		if kv.Key == "threshold" && kv.Value != threshold.String() {
			t.Fatalf("lease-hedged threshold = %q, want %q", kv.Value, threshold)
		}
	}

	// hedgeMax (2) caps concurrent leases: a third worker gets nothing
	// even though the job is still outstanding.
	third := dialFake(t, coord)
	third.mustAccept("third", env.SpaceSig)
	noLease(third, "third lease for a twice-leased job")

	// The hedge wins; the original holder's late answer is a duplicate.
	dups := coord.Counters().Duplicates
	answer(probe, "probe", hedged[0])
	if err := <-done; err != nil {
		t.Fatalf("Measure via hedged lease: %v", err)
	}
	answer(holder, "holder", leases[0])
	waitFor(t, func() bool { return coord.Counters().Duplicates == dups+1 },
		"straggler's result counted as duplicate")
}

// TestQuarantineAndProbationCycle walks the full health state machine
// on a fake clock: five consecutive failures push the EWMA over the
// threshold (quarantine), leases are refused while pending work exists,
// the quarantine window ends exactly at its boundary (readmission on
// probation with single-lease grants), three clean results clear
// probation, and full batch grants resume.
func TestQuarantineAndProbationCycle(t *testing.T) {
	rec := obs.NewFlightRecorder(512)
	obs.SetFlightRecorder(rec)
	defer obs.SetFlightRecorder(nil)

	clk := newFakeClock()
	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database)
	coord := NewCoordinator(env, CoordinatorOptions{
		LeaseTTL:     time.Minute,
		PollInterval: time.Millisecond,
		Clock:        clk,
		Quarantine:   true,
	})
	t.Cleanup(coord.Close)
	cfgs := distinctConfigs(t, env.Space(), 5)

	bad := dialFake(t, coord)
	bad.mustAccept("bad", env.SpaceSig)

	// Five jobs, five failures. With alpha = 0.25 the failure EWMA after
	// N straight failures is 1-0.75^N: 0.68 at four (below the 0.7
	// threshold), 0.76 at five — quarantine fires exactly on the fifth.
	fails := make([]chan error, len(cfgs))
	for i, cfg := range cfgs {
		fails[i] = measureOne(coord, cfg)
	}
	leased := bad.leaseAtLeast(len(cfgs))
	results := make([]JobResult, len(leased))
	for i, l := range leased {
		results[i] = JobResult{LeaseID: l.ID, CfgKey: l.CfgKey, Name: l.Name, Err: "sim exploded"}
	}
	bad.send(&Message{Type: MsgResult, Result: &ResultMsg{Worker: "bad", Results: results}})
	for i, done := range fails {
		var re *RemoteError
		if err := <-done; !errors.As(err, &re) {
			t.Fatalf("Measure %d: err = %v, want RemoteError", i, err)
		}
	}
	if got := coord.Counters().Quarantines; got != 1 {
		t.Fatalf("Quarantines = %d, want 1", got)
	}
	if evs := eventsByKind(rec, "worker-quarantined"); len(evs) != 1 {
		t.Fatalf("worker-quarantined events = %d, want 1", len(evs))
	}
	status := func(name string) WorkerStatus {
		for _, w := range coord.StatusSnapshot().Workers {
			if w.Name == name {
				return w
			}
		}
		t.Fatalf("worker %s missing from status", name)
		return WorkerStatus{}
	}
	if st := status("bad"); !st.Quarantined || st.Health < 0.7 {
		t.Fatalf("status after 5 failures = %+v, want quarantined with health >= 0.7", st)
	}

	// Pending work exists, but a quarantined worker's pull comes back
	// empty. (Error'd keys were forgotten, so resubmitting re-runs them.)
	probation := []chan error{measureOne(coord, cfgs[0]), measureOne(coord, cfgs[1]), measureOne(coord, cfgs[2])}
	waitFor(t, func() bool { return coord.StatusSnapshot().Pending == 3 },
		"probation jobs queued")
	bad.send(&Message{Type: MsgLeaseReq, LeaseReq: &LeaseReq{Max: 8}})
	if m := bad.recv(); len(m.LeaseGrant.Leases) != 0 {
		t.Fatalf("quarantined worker granted leases: %+v", m.LeaseGrant.Leases)
	}

	// The first quarantine lasts 30s: 1ns short of it the worker is
	// still refused; exactly at the end it is readmitted — on
	// probation, so a Max=8 pull over 3 pending jobs yields one lease.
	// (Grant order is queue order, not submission order, so completions
	// are drained only after all three probation rounds.)
	clk.Advance(quarantineFirst - time.Nanosecond)
	bad.send(&Message{Type: MsgLeaseReq, LeaseReq: &LeaseReq{Max: 8}})
	if m := bad.recv(); len(m.LeaseGrant.Leases) != 0 {
		t.Fatalf("worker readmitted before the window ended: %+v", m.LeaseGrant.Leases)
	}
	clk.Advance(time.Nanosecond)
	for i := range probation {
		bad.send(&Message{Type: MsgLeaseReq, LeaseReq: &LeaseReq{Max: 8}})
		m := bad.recv()
		if len(m.LeaseGrant.Leases) != 1 {
			t.Fatalf("probation pull %d granted %d leases, want exactly 1", i, len(m.LeaseGrant.Leases))
		}
		l := m.LeaseGrant.Leases[0]
		bad.send(&Message{Type: MsgResult, Result: &ResultMsg{Worker: "bad", Results: []JobResult{
			{LeaseID: l.ID, CfgKey: l.CfgKey, Name: l.Name,
				Perf: autodb.Perf{LatencyNS: 7, ThroughputBps: 1}, SimNS: 1},
		}}})
	}
	for i, done := range probation {
		if err := <-done; err != nil {
			t.Fatalf("probation job %d: %v", i, err)
		}
	}
	if evs := eventsByKind(rec, "worker-readmitted"); len(evs) != 1 {
		t.Fatalf("worker-readmitted events = %d, want 1", len(evs))
	}
	if evs := eventsByKind(rec, "worker-probation-cleared"); len(evs) != 1 {
		t.Fatalf("worker-probation-cleared events = %d, want 1", len(evs))
	}
	if st := status("bad"); st.Quarantined {
		t.Fatalf("still quarantined after probation cleared: %+v", st)
	}

	// Probation over: batch grants are back — one Max=8 pull returns
	// both pending jobs in a single grant.
	restored := []chan error{measureOne(coord, cfgs[3]), measureOne(coord, cfgs[4])}
	waitFor(t, func() bool { return coord.StatusSnapshot().Pending == 2 },
		"post-probation jobs queued")
	bad.send(&Message{Type: MsgLeaseReq, LeaseReq: &LeaseReq{Max: 8}})
	batch := bad.recv().LeaseGrant.Leases
	if len(batch) != 2 {
		t.Fatalf("post-probation pull granted %d leases, want the full batch of 2", len(batch))
	}
	out := make([]JobResult, len(batch))
	for i, l := range batch {
		out[i] = JobResult{LeaseID: l.ID, CfgKey: l.CfgKey, Name: l.Name,
			Perf: autodb.Perf{LatencyNS: 7, ThroughputBps: 1}, SimNS: 1}
	}
	bad.send(&Message{Type: MsgResult, Result: &ResultMsg{Worker: "bad", Results: out}})
	for i, done := range restored {
		if err := <-done; err != nil {
			t.Fatalf("post-probation job %d: %v", i, err)
		}
	}
}

// runEvilWorker speaks the worker protocol by hand: it executes every
// lease honestly through its own validator, then perturbs LatencyNS by
// one before reporting — a plausible-looking lie only cross-validation
// can catch. It keeps pulling until the coordinator detects the
// divergence (or closes), then says goodbye.
func runEvilWorker(coord *Coordinator, env *Env, done chan<- error) {
	server, client := net.Pipe()
	go func() { _ = coord.ServeConn(server) }()
	defer client.Close()
	r := bufio.NewReader(client)

	fail := func(err error) { done <- err }
	if err := Encode(client, &Message{Type: MsgHello, Hello: &Hello{Worker: "evil", Version: ProtocolVersion}}); err != nil {
		fail(err)
		return
	}
	if m, err := Decode(r); err != nil || m.Type != MsgWelcome {
		fail(err)
		return
	}
	if err := Encode(client, &Message{Type: MsgConfirm, Confirm: &Confirm{SpaceSig: env.SpaceSig}}); err != nil {
		fail(err)
		return
	}
	if m, err := Decode(r); err != nil || m.Type != MsgAccept {
		fail(err)
		return
	}
	v, err := NewValidator(env)
	if err != nil {
		fail(err)
		return
	}
	ctx := context.Background()
	for {
		if coord.Counters().Divergent > 0 {
			// Caught: a real attacker would vanish; goodbye keeps the
			// coordinator's session teardown on the graceful path.
			_ = Encode(client, &Message{Type: MsgGoodbye, Goodbye: &Goodbye{Reason: "caught"}})
			done <- nil
			return
		}
		if err := Encode(client, &Message{Type: MsgLeaseReq, LeaseReq: &LeaseReq{Max: 4}}); err != nil {
			done <- nil // coordinator closed first: fine
			return
		}
		m, err := Decode(r)
		if err != nil || m.Type != MsgLeaseGrant || m.LeaseGrant.Closed {
			done <- nil
			return
		}
		var results []JobResult
		for _, l := range m.LeaseGrant.Leases {
			cfg := ssdconf.Config(l.Cfg)
			f, err := env.FactoryFor(l.Name)
			if err != nil {
				fail(err)
				return
			}
			perf, err := v.MeasureTrace(ctx, cfg, l.Name, f)
			if err != nil {
				fail(err)
				return
			}
			perf.LatencyNS++ // the lie
			results = append(results, JobResult{
				LeaseID: l.ID, CfgKey: l.CfgKey, Name: l.Name, Perf: perf, SimNS: 1,
			})
		}
		if len(results) > 0 {
			if err := Encode(client, &Message{Type: MsgResult, Result: &ResultMsg{Worker: "evil", Results: results}}); err != nil {
				done <- nil
				return
			}
		}
	}
}

// TestByzantineWorkerDetectedAndTuneConverges is the acceptance test
// for cross-validation: a fleet containing a byzantine worker (honest
// simulation, off-by-one report) must detect the divergence, mark the
// worker permanently quarantined, requeue its poisoned work onto
// honest workers, and still produce a tuning checkpoint byte-identical
// to the serial baseline — the lie never reaches the tuner. The evil
// worker is attached alone first so its capture is deterministic, then
// honest workers join and the full tune runs.
func TestByzantineWorkerDetectedAndTuneConverges(t *testing.T) {
	rec := obs.NewFlightRecorder(1024)
	obs.SetFlightRecorder(rec)
	defer obs.SetFlightRecorder(nil)

	env := testEnv(t, 1000, ssd.FaultProfile{}, workload.Database)

	tune := func(label string, parallel int, backend core.Backend) []byte {
		t.Helper()
		v, err := NewValidator(env)
		if err != nil {
			t.Fatal(err)
		}
		v.Parallel = parallel
		v.Backend = backend
		ref := v.Space.FromDevice(ssd.Intel750())
		g, err := core.NewGrader(context.Background(), v, ref, core.DefaultAlpha, core.DefaultBeta)
		if err != nil {
			t.Fatal(err)
		}
		ckpt := filepath.Join(t.TempDir(), label+".json")
		tuner, err := core.NewTuner(v.Space, v, g, core.TunerOptions{
			Seed: 5, MaxIterations: 3, SGDSteps: 2, Checkpoint: ckpt,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tuner.Tune(context.Background(), string(workload.Database), []ssdconf.Config{ref}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	serial := tune("serial", 1, nil)

	coord := NewCoordinator(env, CoordinatorOptions{
		PollInterval: 25 * time.Millisecond,
		Quarantine:   true,
		CrossCheck:   1.0, // verify every result: the evil worker cannot hide
	})
	t.Cleanup(coord.Close)

	// Phase 1: the evil worker is the only one connected, so it is
	// guaranteed the decoy lease — its perturbed answer parks the job in
	// verification, diverges from the local re-simulation, and trips the
	// byzantine trap.
	evilDone := make(chan error, 1)
	go runEvilWorker(coord, env, evilDone)
	decoy := measureOne(coord, distinctConfigs(t, env.Space(), 1)[0])
	waitFor(t, func() bool { return coord.Counters().Divergent >= 1 },
		"cross-validation flags the perturbed result")
	if err := <-evilDone; err != nil {
		t.Fatalf("evil worker infrastructure failure: %v", err)
	}
	if fc := coord.Counters(); fc.CrossChecked == 0 {
		t.Fatal("no results cross-checked despite CrossCheck=1.0")
	}
	if len(eventsByKind(rec, "worker-byzantine")) == 0 {
		t.Fatal("no worker-byzantine event recorded")
	}
	var evil *WorkerStatus
	for _, w := range coord.StatusSnapshot().Workers {
		if w.Name == "evil" {
			w := w
			evil = &w
		}
	}
	if evil == nil {
		t.Fatal("evil worker missing from fleet status")
	}
	if !evil.Byzantine || !evil.Quarantined {
		t.Fatalf("evil worker status = %+v, want byzantine and quarantined", *evil)
	}

	// Phase 2: honest workers join, pick up the requeued decoy, and run
	// the whole tune through the same (still cross-checking) coordinator.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startLoopbackWorker(ctx, coord, &Worker{Name: "honest-0", Parallel: 2})
	startLoopbackWorker(ctx, coord, &Worker{Name: "honest-1", Parallel: 2})
	if err := <-decoy; err != nil {
		t.Fatalf("requeued decoy job: %v", err)
	}
	byzantine := tune("byzantine", 0, coord)

	if !bytes.Equal(serial, byzantine) {
		t.Fatalf("byzantine worker corrupted the tune: checkpoint differs from serial (%d vs %d bytes)\nserial:\n%.2000s",
			len(byzantine), len(serial), serial)
	}
}
