package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"autoblox/internal/autodb"
	"autoblox/internal/core"
	"autoblox/internal/obs"
	"autoblox/internal/ssdconf"
)

// ErrDrained reports a graceful worker shutdown: the context was
// cancelled, the running jobs finished, final stats were pushed,
// and a Goodbye frame closed the session. Callers treat it as a clean
// exit, distinct from transport failures that warrant a reconnect.
var ErrDrained = errors.New("dist: worker drained after shutdown signal")

// reconnectBase is RunReconnect's first backoff delay.
const reconnectBase = 100 * time.Millisecond

// Worker leases measurement jobs from a coordinator, one per free
// simulation slot, runs them through a locally reconstructed validator
// (same memo cache, singleflight, and bounded pool as any in-process
// run), and streams each result back as it finishes. Zero value + Run
// is usable; all fields are optional.
type Worker struct {
	// Name identifies the worker in coordinator metrics (default
	// "<hostname>/<pid>").
	Name string
	// Parallel is the number of simulation slots: the worker holds at
	// most this many leases and runs them concurrently (0 = GOMAXPROCS).
	Parallel int
	// SimTimeout bounds each local simulation like
	// core.Validator.SimTimeout.
	SimTimeout time.Duration
	// Obs, when set, receives the local validator's metrics.
	Obs *obs.Registry
	// PushStats, when set (and Obs is), ships a delta-encoded snapshot
	// of Obs to the coordinator after every round of results, where it
	// is folded into the fleet registry under this worker's name. Leave it
	// off when Obs is shared with the coordinator process (in-process
	// loopback fleets), or the push would re-absorb its own series.
	PushStats bool
	// Persist, when set, backs the local validator's memo cache with a
	// durable store: keys measured in any earlier process land as
	// cache hits instead of re-simulations.
	Persist *core.PersistentCache
	// Dial overrides the transport Run uses (default: TCP via
	// net.Dialer). Tests and chaos harnesses inject wrapped conns here.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Grace, when positive, enables graceful drain: on context
	// cancellation the worker finishes its running jobs, pushes
	// final stats, and sends a Goodbye frame — hard-closing the
	// connection only after Grace elapses. Zero keeps the legacy
	// behavior (the conn is severed the instant the context cancels).
	Grace time.Duration
	// ReconnectMax caps RunReconnect's jittered exponential backoff,
	// which starts at 100ms (default cap 5s).
	ReconnectMax time.Duration

	jobs     atomic.Int64
	busyNS   atomic.Int64
	sessions atomic.Int64 // completed handshakes (backoff reset signal)

	lastPush obs.Snapshot // previous push baseline (lease loop only)

	// Handshake resumption: a reconnect whose Welcome env is identical
	// to the previous session's reuses the reconstructed space,
	// fingerprint, and validator (memo cache included) instead of
	// rebuilding them.
	mu        sync.Mutex
	cachedEnv []byte
	cachedSig string
	cachedV   *core.Validator
}

func (w *Worker) name() string {
	if w.Name != "" {
		return w.Name
	}
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s/%d", host, os.Getpid())
}

func (w *Worker) parallel() int {
	if w.Parallel > 0 {
		return w.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Jobs reports how many leased measurements this worker completed.
func (w *Worker) Jobs() int64 { return w.jobs.Load() }

// Busy reports the cumulative time spent measuring jobs, summed over
// slots.
func (w *Worker) Busy() time.Duration { return time.Duration(w.busyNS.Load()) }

// Run dials a coordinator and serves until the coordinator closes (nil
// error), the context cancels, or the connection fails. A handshake
// refusal surfaces as ErrVersionMismatch / ErrSpaceMismatch; a
// graceful drain (Grace > 0) as ErrDrained.
func (w *Worker) Run(ctx context.Context, addr string) error {
	dial := w.Dial
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	conn, err := dial(ctx, addr)
	if err != nil {
		return err
	}
	return w.RunConn(ctx, conn)
}

// RunReconnect runs the worker with automatic redial: a transport
// failure (dropped conn, mid-frame kill, partition) backs off with
// jittered exponential delay and dials again, resuming the handshake
// against the cached environment. It returns when the coordinator
// closes cleanly, the handshake is rejected, the context cancels, or
// a graceful drain completes.
func (w *Worker) RunReconnect(ctx context.Context, addr string) error {
	base := reconnectBase
	max := w.ReconnectMax
	if max <= 0 {
		max = 5 * time.Second
	}
	h := fnv.New64a()
	h.Write([]byte(w.name()))
	jitterState := h.Sum64()
	attempt := 0
	for {
		before := w.sessions.Load()
		err := w.Run(ctx, addr)
		switch {
		case err == nil:
			return nil // coordinator closed cleanly
		case errors.Is(err, ErrDrained),
			errors.Is(err, ErrVersionMismatch),
			errors.Is(err, ErrSpaceMismatch):
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if w.sessions.Load() > before {
			attempt = 0 // the last dial handshook; start the backoff over
		}
		attempt++
		shift := attempt - 1
		if shift > 16 {
			shift = 16
		}
		d := base << shift
		if d > max {
			d = max
		}
		// Jitter to d/2 + [0, d/2): a fleet of workers severed by the same
		// partition does not redial in lockstep.
		jitterState += 0x9e3779b97f4a7c15
		z := jitterState
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		d = d/2 + time.Duration(z%uint64(d/2+1))
		obs.RecordEvent("worker-reconnect", "worker", w.name(),
			"attempt", strconv.Itoa(attempt), "backoff", d.String(), "err", err.Error())
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// validatorFor resolves the session validator, reusing the previous
// session's (memo cache included) when the Welcome env is unchanged.
// The returned signature is always locally recomputed — a cached hit
// just means it was recomputed from byte-identical inputs last time.
func (w *Worker) validatorFor(env *Env) (*core.Validator, string, error) {
	envJSON, err := json.Marshal(env)
	if err != nil {
		return nil, "", err
	}
	w.mu.Lock()
	if w.cachedV != nil && string(envJSON) == string(w.cachedEnv) {
		v, sig := w.cachedV, w.cachedSig
		w.mu.Unlock()
		return v, sig, nil
	}
	w.mu.Unlock()
	sig := env.Space().Signature()
	v, err := NewValidator(env)
	if err != nil {
		return nil, "", err
	}
	v.Parallel = w.Parallel
	v.Obs = w.Obs
	v.SimTimeout = w.SimTimeout
	v.Persist = w.Persist
	w.mu.Lock()
	w.cachedEnv = envJSON
	w.cachedSig = sig
	w.cachedV = v
	w.mu.Unlock()
	return v, sig, nil
}

// RunConn serves the worker protocol over an established connection
// (used directly for in-process loopback fleets over net.Pipe).
func (w *Worker) RunConn(ctx context.Context, conn net.Conn) error {
	defer conn.Close()
	// Cancellation unblocks pending reads/writes by closing the conn —
	// immediately in the legacy mode, after the drain grace period when
	// Grace is set.
	// stop does not wait for a callback already running, so the grace
	// timer is handed over under timerMu.
	var (
		timerMu    sync.Mutex
		graceTimer *time.Timer
		returned   bool
	)
	stop := context.AfterFunc(ctx, func() {
		if w.Grace <= 0 {
			conn.Close()
			return
		}
		timerMu.Lock()
		defer timerMu.Unlock()
		if !returned {
			graceTimer = time.AfterFunc(w.Grace, func() { conn.Close() })
		}
	})
	defer func() {
		stop()
		timerMu.Lock()
		defer timerMu.Unlock()
		returned = true
		if graceTimer != nil {
			graceTimer.Stop()
		}
	}()

	r := bufio.NewReader(conn)
	if err := Encode(conn, &Message{Type: MsgHello, Hello: &Hello{Worker: w.name(), Version: ProtocolVersion}}); err != nil {
		return err
	}
	m, err := Decode(r)
	if err != nil {
		return err
	}
	if m.Type == MsgReject {
		return m.Reject.Err()
	}
	if m.Type != MsgWelcome {
		return fmt.Errorf("dist: expected welcome, got %s", m.Type)
	}
	recv := time.Now() // Welcome receipt stamp, for the clock-offset probe
	env := m.Welcome.Env
	// Reconstruct the space locally and report its fingerprint: if this
	// binary derives different grids from the same constraints, the
	// coordinator must refuse us before any measurement happens. The two
	// local stamps bracket that (heavy) reconstruction so the
	// coordinator's RTT estimate excludes it. A resumed handshake reuses
	// the previous session's reconstruction (and validator cache).
	v, sig, err := w.validatorFor(&env)
	if err != nil {
		return err
	}
	confirm := &Confirm{
		SpaceSig:     sig,
		RecvUnixNano: recv.UnixNano(),
	}
	confirm.SendUnixNano = time.Now().UnixNano()
	if err := Encode(conn, &Message{Type: MsgConfirm, Confirm: confirm}); err != nil {
		return err
	}
	if m, err = Decode(r); err != nil {
		return err
	}
	if m.Type == MsgReject {
		return m.Reject.Err()
	}
	if m.Type != MsgAccept {
		return fmt.Errorf("dist: expected accept, got %s", m.Type)
	}
	w.sessions.Add(1)
	return w.serve(ctx, conn, r, v, &env)
}

// finished is one job's result, tagged with the slot it ran in.
type finished struct {
	slot int
	jr   JobResult
}

// serve is the lease loop: it holds one lease per free simulation slot,
// asking for Parallel minus the running jobs, and sends each job's
// result in its own frame the moment the job finishes, so a freed slot
// never waits for its neighbours. After an empty grant while jobs are
// still running it waits for the next completion instead of re-polling
// (the coordinator answers a session holding leases at once).
func (w *Worker) serve(ctx context.Context, conn net.Conn, r *bufio.Reader, v *core.Validator, env *Env) error {
	// Graceful drain runs the jobs under a detached context (the running
	// jobs must finish); the grace timer in RunConn still bounds a wedged
	// drain by severing the conn. Any return cancels and joins the jobs.
	jobCtx := ctx
	if w.Grace > 0 {
		jobCtx = context.WithoutCancel(ctx)
	}
	jobCtx, cancelJobs := context.WithCancel(jobCtx)
	var jobs sync.WaitGroup
	defer func() {
		cancelJobs()
		jobs.Wait()
	}()

	slots := w.parallel()
	done := make(chan finished, slots)
	free := make([]int, slots) // idle slots, also the jobs' span lanes
	for i := range free {
		free[i] = slots - i
	}
	waitNext := false
	for {
		draining := ctx.Err() != nil
		if draining && w.Grace <= 0 {
			return ctx.Err()
		}
		// Send every result that is in, one frame each. Block for the
		// first when no slot is free, the last grant came back empty, or
		// the worker is draining.
		wait := len(free) == 0 || waitNext || draining
		sent := 0
	collect:
		for len(free) < slots {
			var f finished
			select {
			case f = <-done:
			default:
				if sent > 0 || !wait {
					break collect
				}
				f = <-done
			}
			// Without a drain grace a cancelled worker sends no further
			// result: a job the cancellation cut short failed with
			// "context canceled", which the coordinator would take as
			// the job's outcome. It re-leases a dropped session's jobs.
			if w.Grace <= 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			free = append(free, f.slot)
			res := &ResultMsg{Worker: w.name(), Results: []JobResult{f.jr}, BusyNS: f.jr.SimNS}
			if err := Encode(conn, &Message{Type: MsgResult, Result: res}); err != nil {
				return err
			}
			sent++
		}
		if sent > 0 {
			if err := w.pushStats(conn); err != nil {
				return err
			}
		}
		if draining {
			if len(free) == slots {
				return w.drain(conn)
			}
			continue
		}
		if len(free) == 0 {
			continue
		}
		want := len(free)
		if err := Encode(conn, &Message{Type: MsgLeaseReq, LeaseReq: &LeaseReq{Max: want}}); err != nil {
			return err
		}
		m, err := Decode(r)
		if err != nil {
			return err
		}
		if m.Type != MsgLeaseGrant {
			return fmt.Errorf("dist: expected lease-grant, got %s", m.Type)
		}
		if m.LeaseGrant.Closed {
			return nil
		}
		leases := m.LeaseGrant.Leases
		if len(leases) > want {
			return fmt.Errorf("dist: granted %d leases, asked for at most %d", len(leases), want)
		}
		for _, l := range leases {
			slot := free[len(free)-1]
			free = free[:len(free)-1]
			jobs.Add(1)
			go func() {
				defer jobs.Done()
				done <- finished{slot, w.runJob(jobCtx, v, env, l, slot)}
			}()
		}
		waitNext = len(leases) == 0 && len(free) < slots
	}
}

// drain finishes a graceful shutdown: final stats push, Goodbye frame,
// clean close. The running jobs already finished and were reported —
// drain only runs once every slot is free.
func (w *Worker) drain(conn net.Conn) error {
	if err := w.pushStats(conn); err != nil {
		return err
	}
	if err := Encode(conn, &Message{Type: MsgGoodbye, Goodbye: &Goodbye{Reason: "shutdown"}}); err != nil {
		return err
	}
	obs.RecordEvent("worker-drained", "worker", w.name())
	return ErrDrained
}

// pushStats ships the registry's changes since the previous push as a
// one-way delta message; no-op unless PushStats and Obs are both set.
func (w *Worker) pushStats(conn net.Conn) error {
	if !w.PushStats || w.Obs == nil {
		return nil
	}
	snap := w.Obs.Snapshot()
	delta := snap.DeltaSince(w.lastPush)
	if delta.Empty() {
		return nil
	}
	if err := Encode(conn, &Message{Type: MsgStatsPush, StatsPush: &StatsPush{Worker: w.name(), Stats: delta}}); err != nil {
		return err
	}
	w.lastPush = snap
	return nil
}

// runJob measures one lease in its slot and reports the result —
// failures included, so the coordinator never waits out a TTL for a
// job that already failed deterministically.
func (w *Worker) runJob(ctx context.Context, v *core.Validator, env *Env, l Lease, slot int) JobResult {
	s0 := time.Now()
	// Tag the worker-side span with the coordinator's lease and trace IDs
	// so a local -trace file correlates with the coordinator's merged
	// timeline.
	sp := obs.StartSpan("worker-job").
		ArgInt("lease", int64(l.ID)).
		Arg("trace", l.Name).
		Arg("trace_id", l.TraceID).
		Lane(int64(slot))
	jr := JobResult{LeaseID: l.ID, CfgKey: l.CfgKey, Name: l.Name, StartUnixNano: s0.UnixNano()}
	perf, err := w.runLease(ctx, v, env, l)
	if err != nil {
		jr.Err = err.Error()
	} else {
		jr.Perf = perf
	}
	jr.SimNS = time.Since(s0).Nanoseconds()
	sp.End()
	w.jobs.Add(1)
	w.busyNS.Add(jr.SimNS)
	return jr
}

// runLease validates and measures one lease.
func (w *Worker) runLease(ctx context.Context, v *core.Validator, env *Env, l Lease) (perf autodb.Perf, err error) {
	cfg := ssdconf.Config(l.Cfg)
	if got := cfg.Key(); got != l.CfgKey {
		return perf, fmt.Errorf("dist: lease %d: config key %q does not match vector key %q", l.ID, l.CfgKey, got)
	}
	f, err := env.FactoryFor(l.Name)
	if err != nil {
		return perf, err
	}
	return v.MeasureTrace(ctx, cfg, l.Name, f)
}
