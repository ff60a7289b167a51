package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/core"
	"autoblox/internal/ssd"
	"autoblox/internal/workload"
)

// TestLeaseAnswersAtOnceWhileHolding pins the coordinator's answer-at-
// once rule: a session that still holds a lease gets its (empty) grant
// immediately instead of a parked long poll, because ServeConn reads
// the session in order and a parked poll would hold back the result of
// the job the worker is running.
func TestLeaseAnswersAtOnceWhileHolding(t *testing.T) {
	const poll = 5 * time.Second
	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database)
	coord := NewCoordinator(env, CoordinatorOptions{PollInterval: poll})
	t.Cleanup(coord.Close)

	done := measureOne(coord, distinctConfigs(t, env.Space(), 1)[0])
	fake := dialFake(t, coord)
	fake.mustAccept("holder", env.SpaceSig)
	leases := fake.leaseAtLeast(1)

	t0 := time.Now()
	fake.send(&Message{Type: MsgLeaseReq, LeaseReq: &LeaseReq{Max: 1}})
	m := fake.recv()
	if waited := time.Since(t0); waited > poll/10 {
		t.Fatalf("grant took %v with a lease held, want well under the %v poll", waited, poll)
	}
	if m.Type != MsgLeaseGrant || m.LeaseGrant.Closed || len(m.LeaseGrant.Leases) != 0 {
		t.Fatalf("got %s %+v, want an empty open grant", m.Type, m.LeaseGrant)
	}

	l := leases[0]
	fake.send(&Message{Type: MsgResult, Result: &ResultMsg{Worker: "holder", Results: []JobResult{
		{LeaseID: l.ID, CfgKey: l.CfgKey, Name: l.Name, Perf: autodb.Perf{LatencyNS: 1, ThroughputBps: 1}, SimNS: 1},
	}}})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestIdlePollAlwaysWakes runs many idle long polls with a tiny
// PollInterval: each must come back with an empty grant. The poll's
// timer broadcast used to be able to fire before the poller parked on
// the condition variable, and that poll then never returned. The race
// is timing-dependent, so this catches it often but not on every run.
func TestIdlePollAlwaysWakes(t *testing.T) {
	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database)
	coord := NewCoordinator(env, CoordinatorOptions{PollInterval: 20 * time.Microsecond})
	defer coord.Close()
	fake := dialFake(t, coord)
	fake.mustAccept("idle", env.SpaceSig)
	for i := 0; i < 5000; i++ {
		fake.send(&Message{Type: MsgLeaseReq, LeaseReq: &LeaseReq{Max: 1}})
		got := make(chan error, 1)
		go func() {
			_, err := Decode(fake.r)
			got <- err
		}()
		select {
		case err := <-got:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("idle poll %d never answered", i)
		}
	}
}

// frameTap decodes the frames flowing one way through a connection.
type frameTap struct {
	buf bytes.Buffer
	on  func(*Message)
}

func (f *frameTap) feed(p []byte) error {
	f.buf.Write(p)
	for f.buf.Len() >= 4 && f.buf.Len() >= 4+int(binary.BigEndian.Uint32(f.buf.Bytes())) {
		m, err := Decode(&f.buf)
		if err != nil {
			return err
		}
		f.on(m)
	}
	return nil
}

// slotRecorder wraps a worker's side of the connection and checks the
// slot rules on every frame: a LeaseReq asks for at most the free
// slots, a grant never fills more than Parallel slots, and each Result
// frame carries exactly one result.
type slotRecorder struct {
	net.Conn
	slots int

	mu         sync.Mutex
	out, in    frameTap
	held       int // leases granted minus results sent
	results    int
	violations []string
	frames     []MsgType // worker → coordinator, in order
	onGrant    func(held int)
}

func newSlotRecorder(conn net.Conn, slots int) *slotRecorder {
	r := &slotRecorder{Conn: conn, slots: slots}
	r.out.on = func(m *Message) {
		r.frames = append(r.frames, m.Type)
		switch m.Type {
		case MsgLeaseReq:
			if free := r.slots - r.held; m.LeaseReq.Max > free {
				r.violate("LeaseReq.Max %d with %d of %d slots running", m.LeaseReq.Max, r.held, r.slots)
			}
		case MsgResult:
			if n := len(m.Result.Results); n != 1 {
				r.violate("Result frame carries %d results, want 1", n)
			}
			for _, jr := range m.Result.Results {
				if jr.Err != "" {
					r.violate("job %s failed: %s", jr.Name, jr.Err)
				}
			}
			r.held -= len(m.Result.Results)
			r.results += len(m.Result.Results)
		}
	}
	r.in.on = func(m *Message) {
		if m.Type != MsgLeaseGrant {
			return
		}
		r.held += len(m.LeaseGrant.Leases)
		if r.held > r.slots {
			r.violate("%d leases held on %d slots", r.held, r.slots)
		}
		if r.onGrant != nil {
			r.onGrant(r.held)
		}
	}
	return r
}

func (r *slotRecorder) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *slotRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	if err := r.out.feed(p); err != nil {
		r.violate("worker wrote a bad frame: %v", err)
	}
	r.mu.Unlock()
	return r.Conn.Write(p)
}

func (r *slotRecorder) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	r.mu.Lock()
	if ferr := r.in.feed(p[:n]); ferr != nil {
		r.violate("worker read a bad frame: %v", ferr)
	}
	r.mu.Unlock()
	return n, err
}

// check reports the recorded violations and returns the results sent.
func (r *slotRecorder) check(t *testing.T) int {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.violations {
		t.Error(v)
	}
	return r.results
}

// TestWorkerLeasesPerFreeSlot runs a real worker against a real
// coordinator and checks slot-driven leasing on the wire: the worker
// asks for Parallel minus its running jobs, returns every result in
// its own frame, and the coordinator never sees it hold more than
// Parallel leases.
func TestWorkerLeasesPerFreeSlot(t *testing.T) {
	env := testEnv(t, 600, ssd.FaultProfile{})
	for _, parallel := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			coord := NewCoordinator(env, CoordinatorOptions{PollInterval: 20 * time.Millisecond})
			defer coord.Close()
			server, client := net.Pipe()
			go func() { _ = coord.ServeConn(server) }()
			rec := newSlotRecorder(client, parallel)
			w := &Worker{Name: "slotted", Parallel: parallel}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			wdone := make(chan error, 1)
			go func() { wdone <- w.RunConn(ctx, rec) }()

			// Sample the coordinator's view while the batch runs.
			stop := make(chan struct{})
			maxHeld := make(chan int, 1)
			go func() {
				most := 0
				for {
					for _, ws := range coord.StatusSnapshot().Workers {
						most = max(most, ws.LeasesHeld)
					}
					select {
					case <-stop:
						maxHeld <- most
						return
					case <-time.After(200 * time.Microsecond):
					}
				}
			}()

			v, err := NewValidator(env)
			if err != nil {
				t.Fatal(err)
			}
			v.Backend = coord
			cfgs := distinctConfigs(t, v.Space, 4)
			if err := v.MeasureBatch(ctx, cfgs, v.Clusters()); err != nil {
				t.Fatal(err)
			}
			close(stop)
			if most := <-maxHeld; most > parallel {
				t.Errorf("coordinator saw %d leases held, Parallel is %d", most, parallel)
			}
			coord.Close()
			if err := <-wdone; err != nil {
				t.Fatalf("worker exit: %v", err)
			}
			want := len(cfgs) * len(v.Clusters())
			if got := rec.check(t); got != want {
				t.Errorf("worker sent %d results, want %d", got, want)
			}
			if got := w.Jobs(); got != int64(want) {
				t.Errorf("Jobs() = %d, want %d", got, want)
			}
		})
	}
}

// TestWorkerGracefulDrain cancels a Grace worker while its slots are
// busy: it must take no new lease, finish and report every running
// job, then say Goodbye and return ErrDrained.
func TestWorkerGracefulDrain(t *testing.T) {
	env := testEnv(t, 600, ssd.FaultProfile{})
	coord := NewCoordinator(env, CoordinatorOptions{PollInterval: 20 * time.Millisecond})
	defer coord.Close()
	server, client := net.Pipe()
	go func() { _ = coord.ServeConn(server) }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := newSlotRecorder(client, 2)
	var granted int
	rec.onGrant = func(held int) {
		if held > 0 && granted == 0 {
			granted = held
			cancel() // shut down while the slots are busy
		}
	}
	w := &Worker{Name: "drainer", Parallel: 2, Grace: time.Minute}
	wdone := make(chan error, 1)
	go func() { wdone <- w.RunConn(ctx, rec) }()

	v, err := NewValidator(env)
	if err != nil {
		t.Fatal(err)
	}
	v.Backend = coord
	cfgs := distinctConfigs(t, v.Space, 4)
	mctx, stopMeasure := context.WithCancel(context.Background())
	defer stopMeasure()
	go func() { _ = v.MeasureBatch(mctx, cfgs, v.Clusters()) }()

	if err := <-wdone; !errors.Is(err, ErrDrained) {
		t.Fatalf("worker exit: %v, want ErrDrained", err)
	}
	if got := rec.check(t); got != granted {
		t.Errorf("drain reported %d results, want the %d running jobs", got, granted)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.held != 0 {
		t.Errorf("%d leases still held at Goodbye", rec.held)
	}
	if last := rec.frames[len(rec.frames)-1]; last != MsgGoodbye {
		t.Errorf("last frame %s, want goodbye", last)
	}
}

// TestJobTableForgetsCompletedJobs pins the bound on the coordinator's
// job table: a job leaves byKey when it completes, so the table holds
// only jobs in flight. A late duplicate result still counts as a
// duplicate, and a second validator (which has no memo of the first's
// results) that re-measures a completed key gets a fresh lease.
func TestJobTableForgetsCompletedJobs(t *testing.T) {
	const n = 6
	env := testEnv(t, 600, ssd.FaultProfile{}, workload.Database)
	coord := NewCoordinator(env, CoordinatorOptions{PollInterval: 10 * time.Millisecond})
	t.Cleanup(coord.Close)
	tableSize := func() int {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return len(coord.byKey)
	}
	answer := func(f *fakeWorker, leases []Lease) {
		rs := make([]JobResult, len(leases))
		for i, l := range leases {
			rs[i] = JobResult{LeaseID: l.ID, CfgKey: l.CfgKey, Name: l.Name,
				Perf: autodb.Perf{LatencyNS: int64(i + 1), ThroughputBps: 1}, SimNS: 1}
		}
		f.send(&Message{Type: MsgResult, Result: &ResultMsg{Worker: "w", Results: rs}})
	}
	newValidator := func() *core.Validator {
		v, err := NewValidator(env)
		if err != nil {
			t.Fatal(err)
		}
		v.Backend = coord
		return v
	}

	v := newValidator()
	cfgs := distinctConfigs(t, v.Space, n)
	fake := dialFake(t, coord)
	fake.mustAccept("w", env.SpaceSig)
	batch := measureAsync(context.Background(), v, cfgs)
	leases := fake.leaseAtLeast(n)
	if got := tableSize(); got != n {
		t.Fatalf("job table holds %d keys with %d jobs in flight", got, n)
	}
	answer(fake, leases)
	if err := <-batch; err != nil {
		t.Fatal(err)
	}
	if got := tableSize(); got != 0 {
		t.Fatalf("job table holds %d keys after every job completed, want 0", got)
	}

	dup := coord.Counters().Duplicates
	answer(fake, leases[:1])
	waitFor(t, func() bool { return coord.Counters().Duplicates == dup+1 },
		"a late result for a completed key counts as a duplicate")

	again := measureAsync(context.Background(), newValidator(), cfgs[:1])
	fresh := fake.leaseAtLeast(1)
	if fresh[0].ID <= leases[n-1].ID {
		t.Fatalf("re-measure reused lease %d, want a fresh one", fresh[0].ID)
	}
	answer(fake, fresh)
	if err := <-again; err != nil {
		t.Fatal(err)
	}
	if got := tableSize(); got != 0 {
		t.Fatalf("job table holds %d keys after the re-measure, want 0", got)
	}
}
