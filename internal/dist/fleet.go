package dist

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"autoblox/internal/core"
	"autoblox/internal/obs"
)

// FleetOptions configures StartFleet.
type FleetOptions struct {
	// Workers is the number of in-process loopback workers (net.Pipe
	// transport, no sockets). 0 is valid when Listen is set: the fleet
	// then consists only of remote workers.
	Workers int
	// Listen, when non-empty, accepts remote autobloxd-worker
	// connections on this TCP address ("host:port", ":0" for ephemeral).
	Listen string
	// WorkerParallel bounds each loopback worker's concurrent
	// simulations (0 = GOMAXPROCS).
	WorkerParallel int
	// SimTimeout bounds each loopback worker simulation.
	SimTimeout time.Duration
	// LeaseTTL/PollInterval tune the coordinator (see
	// CoordinatorOptions).
	LeaseTTL     time.Duration
	PollInterval time.Duration
	// Obs, when set, receives fleet counters, per-worker busy
	// histograms, and the loopback workers' validator metrics.
	Obs *obs.Registry
	// Hedge enables the coordinator's hedged re-leases (see
	// CoordinatorOptions).
	Hedge bool
	// WrapConn, when set, wraps every accepted remote connection before
	// the coordinator serves it — the chaos-harness hook
	// (chaos.Transport.Wrap injects deterministic faults on the server
	// side of the stream). Loopback workers are not wrapped.
	WrapConn func(net.Conn) net.Conn
}

// Fleet bundles a coordinator with its loopback workers and optional
// TCP listener. Use Backend() as the Validator.Backend and Close when
// the run finishes.
type Fleet struct {
	coord  *Coordinator
	ln     net.Listener
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// StartFleet builds a coordinator over env and connects Workers
// in-process loopback workers; with Listen set it additionally accepts
// remote workers.
func StartFleet(env *Env, opts FleetOptions) (*Fleet, error) {
	if opts.Workers <= 0 && opts.Listen == "" {
		return nil, fmt.Errorf("dist: fleet needs loopback workers or a listen address")
	}
	coord := NewCoordinator(env, CoordinatorOptions{
		LeaseTTL:     opts.LeaseTTL,
		PollInterval: opts.PollInterval,
		Obs:          opts.Obs,
		Hedge:        opts.Hedge,
	})
	ctx, cancel := context.WithCancel(context.Background())
	f := &Fleet{coord: coord, cancel: cancel}
	if opts.Listen != "" {
		ln, err := net.Listen("tcp", opts.Listen)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("dist: fleet listen: %w", err)
		}
		if opts.WrapConn != nil {
			ln = wrapListener{ln, opts.WrapConn}
		}
		f.ln = ln
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = coord.Serve(ln)
		}()
	}
	for i := 0; i < opts.Workers; i++ {
		server, client := net.Pipe()
		w := &Worker{
			Name:       fmt.Sprintf("loopback-%d", i),
			Parallel:   opts.WorkerParallel,
			SimTimeout: opts.SimTimeout,
			Obs:        opts.Obs,
		}
		f.wg.Add(2)
		go func() {
			defer f.wg.Done()
			_ = coord.ServeConn(server)
		}()
		go func() {
			defer f.wg.Done()
			_ = w.RunConn(ctx, client)
		}()
	}
	return f, nil
}

// wrapListener passes every accepted conn through a WrapConn hook.
type wrapListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l wrapListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(conn), nil
}

// Backend returns the fleet's coordinator as a validator backend.
func (f *Fleet) Backend() core.Backend { return f.coord }

// Coordinator exposes the underlying coordinator (counters, env).
func (f *Fleet) Coordinator() *Coordinator { return f.coord }

// Status returns the coordinator's live fleet view — wire it into the
// introspection server's /statusz provider.
func (f *Fleet) Status() FleetStatus { return f.coord.StatusSnapshot() }

// Addr returns the TCP listener address ("" without Listen) — handy
// for printing the -connect endpoint and for tests using ":0".
func (f *Fleet) Addr() string {
	if f.ln == nil {
		return ""
	}
	return f.ln.Addr().String()
}

// Close shuts the fleet down: pending measurements fail with ErrClosed,
// workers exit on their next lease pull, and the listener closes. It
// blocks until every loopback worker and the accept loop return.
func (f *Fleet) Close() {
	f.coord.Close()
	if f.ln != nil {
		f.ln.Close()
	}
	f.wg.Wait()
	f.cancel()
}
