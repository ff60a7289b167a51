package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/obs"
	"autoblox/internal/ssd"
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

// TestResultsChargedToHandshakeName pins attribution to the connection:
// a worker that handshakes as "w" but stamps its frames "impostor" has
// its error, tally, busy histogram and pushed metrics charged to "w",
// and no "impostor" row or series appears. The errored key is forgotten,
// so resubmitting it queues a fresh job.
func TestResultsChargedToHandshakeName(t *testing.T) {
	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database)
	reg := obs.NewRegistry()
	coord := NewCoordinator(env, CoordinatorOptions{PollInterval: time.Millisecond, Obs: reg})
	t.Cleanup(coord.Close)
	cfg := distinctConfigs(t, env.Space(), 1)[0]

	w := dialFake(t, coord)
	w.mustAccept("w", env.SpaceSig)
	done := measureOne(coord, cfg)
	first := w.leaseAtLeast(1)[0]
	w.send(&Message{Type: MsgResult, Result: &ResultMsg{Worker: "impostor", BusyNS: 5, Results: []JobResult{
		{LeaseID: first.ID, CfgKey: first.CfgKey, Name: first.Name, Err: "boom", SimNS: 5},
	}}})
	var re *RemoteError
	if err := <-done; !errors.As(err, &re) || re.Worker != "w" || re.Msg != "boom" {
		t.Fatalf("Measure err = %v, want RemoteError{Worker: w, Msg: boom}", err)
	}
	w.send(&Message{Type: MsgStatsPush, StatsPush: &StatsPush{Worker: "impostor",
		Stats: obs.Snapshot{Counters: map[string]int64{"worker_jobs_total": 1}}}})

	// The coordinator reads a session's frames in order, so the stats
	// push is absorbed before this lease request is answered.
	done = measureOne(coord, cfg)
	fresh := w.leaseAtLeast(1)[0]
	if fresh.ID == first.ID || fresh.CfgKey != first.CfgKey {
		t.Fatalf("resubmit got lease %+v, want a fresh lease of %+v", fresh, first)
	}

	st := coord.StatusSnapshot()
	if len(st.Workers) != 1 || st.Workers[0].Name != "w" || st.Workers[0].Jobs != 1 {
		t.Fatalf("status workers = %+v, want one row w with 1 job", st.Workers)
	}
	snap := reg.Snapshot()
	if _, ok := snap.Histograms[MetricWorkerBusy("w")]; !ok {
		t.Fatal("busy histogram not recorded under the handshake name")
	}
	if got := snap.Counters[obs.WithLabel("worker_jobs_total", "worker", "w")]; got != 1 {
		t.Fatalf("pushed counter under w = %d, want 1", got)
	}
	if js, _ := json.Marshal(snap); strings.Contains(string(js), "impostor") {
		t.Fatalf("a series is labelled with the frame's name: %s", js)
	}

	w.send(&Message{Type: MsgResult, Result: &ResultMsg{Worker: "w", Results: []JobResult{
		{LeaseID: fresh.ID, CfgKey: fresh.CfgKey, Name: fresh.Name,
			Perf: autodb.Perf{LatencyNS: 7, ThroughputBps: 1}, SimNS: 1},
	}}})
	if err := <-done; err != nil {
		t.Fatalf("resubmitted job: %v", err)
	}
}

// heldConn ignores Close, so a worker's frames keep reaching the peer
// after its context is cancelled; the test closes the pipe itself.
type heldConn struct{ net.Conn }

func (heldConn) Close() error { return nil }

// TestCancelledWorkerSendsNoFailedResult cancels a worker without a
// drain grace while its one leased simulation runs. With the conn's
// Close held back, nothing else stops the worker from forwarding the
// job the cancellation cut short: it must send no result frame that
// carries the "context canceled" failure, or the coordinator would fail
// the job instead of re-leasing it.
func TestCancelledWorkerSendsNoFailedResult(t *testing.T) {
	env := testEnv(t, 400_000, ssd.FaultProfile{}, workload.Database)
	cfg := distinctConfigs(t, env.Space(), 1)[0]
	server, client := net.Pipe()
	defer server.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Name: "w", Parallel: 1}
	exited := make(chan error, 1)
	go func() { exited <- w.RunConn(ctx, heldConn{client}) }()

	r := bufio.NewReader(server)
	expect := func(typ MsgType) {
		t.Helper()
		m, err := Decode(r)
		if err != nil || m.Type != typ {
			t.Fatalf("coordinator side: got %v (%v), want %s", m, err, typ)
		}
	}
	send := func(m *Message) {
		t.Helper()
		if err := Encode(server, m); err != nil {
			t.Fatalf("coordinator side send %s: %v", m.Type, err)
		}
	}
	expect(MsgHello)
	send(&Message{Type: MsgWelcome, Welcome: &Welcome{Env: *env}})
	expect(MsgConfirm)
	send(&Message{Type: MsgAccept})
	expect(MsgLeaseReq)
	send(&Message{Type: MsgLeaseGrant, LeaseGrant: &LeaseGrant{Leases: []Lease{
		{ID: 1, CfgKey: cfg.Key(), Cfg: cfg, Name: string(workload.Database) + "#0"},
	}}})

	// Record every later frame; a further lease request is told the
	// coordinator closed, so the worker exits either way.
	var frames []*Message
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			m, err := Decode(r)
			if err != nil {
				return
			}
			frames = append(frames, m)
			if m.Type == MsgLeaseReq {
				_ = Encode(server, &Message{Type: MsgLeaseGrant, LeaseGrant: &LeaseGrant{Closed: true}})
			}
		}
	}()
	// Let the worker reach its wait on the one running job: a 400k-request
	// trace takes far longer than this pause to build and simulate. The
	// pause only makes a worker that forwards the cut-short job fail
	// every run; a correct worker passes whenever the cancellation lands.
	time.Sleep(50 * time.Millisecond)
	cancel()
	var err error
	select {
	case err = <-exited:
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not exit after cancellation")
	}
	client.Close()
	<-read
	if w.Jobs() != 1 {
		t.Fatalf("worker ran %d jobs, want 1", w.Jobs())
	}
	for _, m := range frames {
		if m.Type != MsgResult {
			continue
		}
		for _, jr := range m.Result.Results {
			if jr.Err != "" {
				t.Fatalf("cancelled worker sent a failed result: %q", jr.Err)
			}
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunConn = %v, want context.Canceled", err)
	}
}
