package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"autoblox/internal/core"
	"autoblox/internal/obs"
	"autoblox/internal/obs/httpobs"
	"autoblox/internal/ssd"
	"autoblox/internal/ssdconf"
	"autoblox/internal/workload"
)

// syncBuf is a goroutine-safe io.Writer for capturing trace output
// while workers and the coordinator are still emitting.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// traceEvent is the subset of the Chrome trace_event schema the
// correlation tests care about.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args"`
}

func parseTrace(t *testing.T, jsonl string) []traceEvent {
	t.Helper()
	var out []traceEvent
	for _, line := range strings.Split(jsonl, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var ev traceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

// TestStatsPushAggregation pins the metrics-over-the-wire contract: a
// worker with its own registry and PushStats set ships delta snapshots
// after each result batch, and the coordinator folds them into the
// fleet registry as per-worker labelled series matching the worker's
// own totals exactly.
func TestStatsPushAggregation(t *testing.T) {
	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database)
	coordReg := obs.NewRegistry()
	coord := NewCoordinator(env, CoordinatorOptions{
		PollInterval: 25 * time.Millisecond,
		Obs:          coordReg,
	})
	defer coord.Close()
	v, err := NewValidator(env)
	if err != nil {
		t.Fatal(err)
	}
	v.Backend = coord

	workerReg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wdone := startLoopbackWorker(ctx, coord, &Worker{
		Name: "pusher", Parallel: 2, Obs: workerReg, PushStats: true,
	})

	cfgs := distinctConfigs(t, v.Space, 2)
	if err := v.MeasureBatch(context.Background(), cfgs, v.Clusters()); err != nil {
		t.Fatal(err)
	}

	// The final push trails the last result frame; poll until the fleet
	// registry catches up with the worker's own counter.
	series := core.MetricSimRuns + `{worker="pusher"}`
	want := workerReg.Counter(core.MetricSimRuns).Value()
	if want == 0 {
		t.Fatal("worker registry recorded no simulations")
	}
	deadline := time.Now().Add(5 * time.Second)
	var got int64
	for {
		got = coordReg.Snapshot().Counters[series]
		if got == want || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got != want {
		t.Fatalf("fleet registry %s = %d, worker's own total %d", series, got, want)
	}

	// Histograms travel too, bucket-for-bucket.
	hw := workerReg.Snapshot().Histograms[core.MetricSimTime]
	hf := coordReg.Snapshot().Histograms[core.MetricSimTime+`{worker="pusher"}`]
	if hf.Count != hw.Count || hf.Sum != hw.Sum {
		t.Fatalf("absorbed histogram count/sum %d/%d, worker's own %d/%d", hf.Count, hf.Sum, hw.Count, hw.Sum)
	}

	if fc := coord.Counters(); fc.StatsPushes == 0 {
		t.Fatal("coordinator counted no stats pushes")
	}
	if n := coordReg.Counter(MetricStatsPushes).Value(); n == 0 {
		t.Fatal("registry counted no stats pushes")
	}

	coord.Close()
	if err := <-wdone; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestTraceCorrelation pins cross-process trace assembly: the
// coordinator replays accepted results as "lease" (queue residency) and
// "worker-sim" (clock-corrected execution) spans carrying the lease ID
// and fleet trace ID, correlating with the worker-side "worker-job"
// span for the same lease.
func TestTraceCorrelation(t *testing.T) {
	var buf syncBuf
	obs.SetTracer(obs.NewTracer(&buf))
	defer obs.SetTracer(nil)

	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database)
	coord := NewCoordinator(env, CoordinatorOptions{PollInterval: 25 * time.Millisecond})
	v, err := NewValidator(env)
	if err != nil {
		t.Fatal(err)
	}
	v.Backend = coord

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wdone := startLoopbackWorker(ctx, coord, &Worker{Name: "traced", Parallel: 2})

	cfgs := distinctConfigs(t, v.Space, 2)
	if err := v.MeasureBatch(context.Background(), cfgs, v.Clusters()); err != nil {
		t.Fatal(err)
	}
	coord.Close()
	if err := <-wdone; err != nil {
		t.Fatalf("worker exit: %v", err)
	}

	// All emitters have exited; the buffer is now quiescent. Index the
	// replayed coordinator spans and the worker-side spans by lease ID.
	byName := map[string][]traceEvent{}
	for _, ev := range parseTrace(t, buf.String()) {
		byName[ev.Name] = append(byName[ev.Name], ev)
	}
	for _, name := range []string{"lease", "worker-sim", "worker-job"} {
		if len(byName[name]) == 0 {
			t.Fatalf("no %q events in merged trace; have %v", name, keys(byName))
		}
	}

	sims := map[string]traceEvent{}
	for _, ev := range byName["worker-sim"] {
		sims[ev.Args["lease"]] = ev
	}
	jobs := map[string]traceEvent{}
	for _, ev := range byName["worker-job"] {
		jobs[ev.Args["lease"]] = ev
	}
	traceID := byName["lease"][0].Args["trace_id"]
	if traceID == "" {
		t.Fatal("lease span missing trace_id")
	}
	for _, lease := range byName["lease"] {
		id := lease.Args["lease"]
		sim, ok := sims[id]
		if !ok {
			t.Fatalf("lease %s has no correlated worker-sim span", id)
		}
		if _, ok := jobs[id]; !ok {
			t.Fatalf("lease %s has no correlated worker-job span", id)
		}
		if lease.Args["worker"] != "traced" || sim.Args["worker"] != "traced" {
			t.Fatalf("spans for lease %s not attributed to worker: %v / %v", id, lease.Args, sim.Args)
		}
		if sim.Args["trace_id"] != traceID || lease.Args["trace_id"] != traceID {
			t.Fatalf("trace_id mismatch for lease %s", id)
		}
		// Worker spans render on dedicated fleet lanes (>= 101), away
		// from the tuner's in-process lanes.
		if lease.Tid < 101 || sim.Tid != lease.Tid {
			t.Fatalf("lease %s lanes: lease tid %d, sim tid %d", id, lease.Tid, sim.Tid)
		}
	}
}

func keys(m map[string][]traceEvent) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestFlakyJobExpiryWarning pins the flight-recorder satellite: when
// the same job expires twice the recorder carries a warn-flaky-job
// event, and the per-worker status rows attribute the expiries to the
// holder and the reassignments to the receiving worker.
func TestFlakyJobExpiryWarning(t *testing.T) {
	rec := obs.NewFlightRecorder(512)
	obs.SetFlightRecorder(rec)
	defer obs.SetFlightRecorder(nil)

	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database)
	coord := NewCoordinator(env, CoordinatorOptions{
		LeaseTTL:     150 * time.Millisecond,
		PollInterval: 25 * time.Millisecond,
	})
	defer coord.Close()
	v, err := NewValidator(env)
	if err != nil {
		t.Fatal(err)
	}
	v.Backend = coord

	cfgs := distinctConfigs(t, v.Space, 1)
	jobs := len(cfgs) * len(v.Clusters())

	fake := dialFake(t, coord)
	fake.mustAccept("flaky", env.SpaceSig)
	batch := measureAsync(context.Background(), v, cfgs)

	// Round 1: lease everything, sit silent past the TTL. Expiry is
	// driven by lease requests, so the same worker's round-2 pull is
	// what reclaims and immediately re-takes the overdue jobs.
	fake.leaseAtLeast(jobs)
	fake.leaseAtLeast(jobs)
	if got := coord.Counters().Expired; got < int64(jobs) {
		t.Fatalf("expired = %d after re-lease, want >= %d", got, jobs)
	}

	// A healthy worker joins: its polling expires the silent round-2
	// leases a second time (warn threshold) and rescues the batch.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wdone := startLoopbackWorker(ctx, coord, &Worker{Name: "rescuer", Parallel: 2})
	if err := <-batch; err != nil {
		t.Fatalf("batch after flaky worker: %v", err)
	}

	var warns int
	for _, ev := range rec.Events() {
		if ev.Kind == "warn-flaky-job" {
			warns++
		}
	}
	if warns < jobs {
		t.Fatalf("%d warn-flaky-job events, want >= %d (one per twice-expired job)\n%+v", warns, jobs, rec.Events())
	}
	kinds := map[string]bool{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{"worker-connected", "lease-expired", "lease-reassigned"} {
		if !kinds[k] {
			t.Fatalf("flight recorder missing %q events; have %v", k, kinds)
		}
	}

	st := coord.Stats()
	if st.LeasesExpired < int64(2*jobs) || st.LeasesReassigned < int64(2*jobs) {
		t.Fatalf("backend stats expired/reassigned = %d/%d, want >= %d each", st.LeasesExpired, st.LeasesReassigned, 2*jobs)
	}
	rows := map[string]WorkerStatus{}
	for _, w := range coord.StatusSnapshot().Workers {
		rows[w.Name] = w
	}
	flaky, ok := rows["flaky"]
	if !ok {
		t.Fatalf("no per-worker row for flaky; rows %v", rows)
	}
	if flaky.LeasesExpired < int64(2*jobs) {
		t.Fatalf("flaky expiries = %d, want >= %d (expiry attributed to holder)", flaky.LeasesExpired, 2*jobs)
	}
	if flaky.LeasesReassigned < int64(jobs) {
		t.Fatalf("flaky reassignments = %d, want >= %d (round-2 grants were reassignments)", flaky.LeasesReassigned, jobs)
	}
	rescuer, ok := rows["rescuer"]
	if !ok || rescuer.Jobs != int64(jobs) {
		t.Fatalf("rescuer row %+v, want %d jobs", rescuer, jobs)
	}

	coord.Close()
	if err := <-wdone; err != nil {
		t.Fatalf("rescuer exit: %v", err)
	}
}

// TestTuneInstrumentedEquivalence is the acceptance-criteria test for
// the control plane: a 4-worker TCP tune with EVERYTHING on — fleet
// registry, stats-pushing workers, global tracer, flight recorder, and
// a live introspection server being scraped — must write a checkpoint
// byte-identical to a bare uninstrumented serial run. It also pins the
// live endpoints: per-worker series on the coordinator's /metrics,
// worker rows on /statusz, and tune progress on /tunez.
func TestTuneInstrumentedEquivalence(t *testing.T) {
	env := testEnv(t, 900, ssd.FaultProfile{})

	tune := func(label string, parallel int, backend core.Backend, st *obs.TuneStatus) []byte {
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
			Seed: 5, MaxIterations: 4, SGDSteps: 2, Checkpoint: ckpt,
			OnIteration:  st.Update,
			OnCheckpoint: st.MarkCheckpoint,
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

	// Bare baseline: no registry, no tracer, no recorder, no HTTP. A nil
	// *TuneStatus exercises the nil-safe hooks.
	serial := tune("serial", 1, nil, nil)

	// Fully instrumented 4-worker TCP fleet.
	var tbuf syncBuf
	obs.SetTracer(obs.NewTracer(&tbuf))
	defer obs.SetTracer(nil)
	rec := obs.NewFlightRecorder(1024)
	obs.SetFlightRecorder(rec)
	defer obs.SetFlightRecorder(nil)

	reg := obs.NewRegistry()
	fleet, err := StartFleet(env, FleetOptions{
		Listen:       "127.0.0.1:0",
		PollInterval: 25 * time.Millisecond,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wdone []chan error
	for i := 0; i < 4; i++ {
		w := &Worker{
			Name:      fmt.Sprintf("tcp-%d", i),
			Parallel:  2,
			Obs:       obs.NewRegistry(),
			PushStats: true,
		}
		done := make(chan error, 1)
		wdone = append(wdone, done)
		go func() { done <- w.Run(ctx, fleet.Addr()) }()
	}

	st := obs.NewTuneStatus()
	st.SetSims(reg.Counter(core.MetricSimRuns))
	st.Begin(string(workload.Database), 4)
	srv, err := httpobs.Start("127.0.0.1:0", httpobs.Options{
		Registry: reg,
		Tune:     st,
		Flight:   rec,
		Status:   func() any { return fleet.Status() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	instrumented := tune("instrumented", 0, fleet.Backend(), st)
	st.Done()

	if !bytes.Equal(serial, instrumented) {
		t.Fatalf("instrumentation is observable in checkpoint bytes (%d vs %d bytes)",
			len(instrumented), len(serial))
	}

	scrape := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(body)
	}

	// /metrics must carry fleet counters and per-worker pushed series.
	// The last push trails the final result frame, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	var metrics string
	for {
		metrics = scrape("/metrics")
		if strings.Contains(metrics, core.MetricSimRuns+`{worker="tcp-`) || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, want := range []string{
		"# TYPE " + MetricLeasesGranted + " counter",
		core.MetricSimRuns + `{worker="tcp-`,
		MetricStatsPushes,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var status FleetStatus
	if err := json.Unmarshal([]byte(extractFleet(t, scrape("/statusz"))), &status); err != nil {
		t.Fatalf("/statusz fleet not decodable: %v", err)
	}
	if len(status.Workers) != 4 || status.Granted == 0 || status.StatsPushes == 0 {
		t.Fatalf("/statusz fleet view: %+v", status)
	}
	for _, w := range status.Workers {
		if !strings.HasPrefix(w.Name, "tcp-") || !w.Connected {
			t.Fatalf("worker row %+v", w)
		}
	}

	var snap obs.TuneSnapshot
	if err := json.Unmarshal([]byte(scrape("/tunez")), &snap); err != nil {
		t.Fatalf("/tunez: %v", err)
	}
	// Sims stays 0 here: simulations ran on remote workers, whose counts
	// arrive as {worker=...} labelled series rather than the bare local
	// counter the sims gauge tracks.
	if snap.Target != string(workload.Database) || snap.Iteration != 4 || snap.CheckpointPath == "" {
		t.Fatalf("/tunez after tune: %+v", snap)
	}
	if snap.ElapsedNS <= 0 || snap.CheckpointAgeNS < 0 {
		t.Fatalf("/tunez freshness: %+v", snap)
	}

	var events []obs.FlightEvent
	if err := json.Unmarshal([]byte(scrape("/eventz")), &events); err != nil {
		t.Fatalf("/eventz: %v", err)
	}
	kinds := map[string]bool{}
	for _, ev := range events {
		kinds[ev.Kind] = true
	}
	if !kinds["worker-connected"] || !kinds["checkpoint"] {
		t.Fatalf("/eventz kinds %v, want worker-connected and checkpoint", kinds)
	}

	// Orderly teardown before reading the trace buffer.
	fleet.Close()
	cancel()
	for i, done := range wdone {
		if err := <-done; err != nil && ctx.Err() == nil {
			t.Fatalf("worker %d exit: %v", i, err)
		}
	}
	found := map[string]bool{}
	for _, ev := range parseTrace(t, tbuf.String()) {
		found[ev.Name] = true
	}
	for _, name := range []string{"lease", "worker-sim", "worker-job"} {
		if !found[name] {
			t.Errorf("merged trace missing %q spans", name)
		}
	}
}

// extractFleet pulls the "fleet" sub-document out of a /statusz body.
func extractFleet(t *testing.T, body string) string {
	t.Helper()
	var doc struct {
		Fleet json.RawMessage `json:"fleet"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if len(doc.Fleet) == 0 {
		t.Fatalf("/statusz has no fleet key:\n%s", body)
	}
	return string(doc.Fleet)
}
