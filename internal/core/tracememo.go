package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"autoblox/internal/trace"
)

// traceMemo holds each validation trace a validator simulates, once, as
// a read-only request slice keyed by its canonical name — the name the
// result cache already trusts to identify the trace. The first
// simulation of a name builds the slice from its factory; every later
// one, on any worker slot, replays a fresh cursor over it instead of
// re-deriving the stream. A failed or cancelled build stores nothing,
// so errors are never memoized.
type traceMemo struct {
	mu    sync.Mutex
	slots map[string]*memoSlot
}

// memoSlot is one trace name's entry. lock is a one-token semaphore held
// while the trace is built, so racing simulations build it once and a
// waiter can still give up on its context; tr is set once the build
// succeeded.
type memoSlot struct {
	lock chan struct{}
	tr   atomic.Pointer[trace.Trace]
}

func (m *traceMemo) slot(name string) *memoSlot {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.slots == nil {
		m.slots = make(map[string]*memoSlot)
	}
	s := m.slots[name]
	if s == nil {
		s = &memoSlot{lock: make(chan struct{}, 1)}
		m.slots[name] = s
	}
	return s
}

// source returns a cursor over name's trace, building the trace from f
// on first use.
func (m *traceMemo) source(ctx context.Context, name string, f trace.SourceFactory) (trace.Source, error) {
	s := m.slot(name)
	if tr := s.tr.Load(); tr != nil {
		return tr.Source(), nil
	}
	select {
	case s.lock <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.lock }() // also on a panic in the factory or source
	if tr := s.tr.Load(); tr != nil {
		return tr.Source(), nil
	}
	tr, err := collect(ctx, f())
	if err != nil {
		return nil, fmt.Errorf("core: validator trace %q: %w", name, err)
	}
	s.tr.Store(tr)
	return tr.Source(), nil
}

// collect reads src into a trace. A cursor over a trace already in
// memory shares that trace's requests; any other source is swept twice,
// once to count and once to fill a slice of exactly that size. Both
// sweeps poll ctx every 1024 requests, as a simulation does.
func collect(ctx context.Context, src trace.Source) (*trace.Trace, error) {
	if tr, ok := trace.Shared(src); ok {
		return tr, nil
	}
	n, err := sweep(ctx, src, nil)
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{Name: src.Name(), Requests: make([]trace.Request, n)}
	if _, err := sweep(ctx, src, tr.Requests); err != nil {
		return nil, err
	}
	return tr, nil
}

// sweep rewinds src and reads it to the end, storing the requests into
// reqs when it is non-nil, and returns how many there were. A filling
// sweep fails unless it yields exactly len(reqs) requests.
func sweep(ctx context.Context, src trace.Source, reqs []trace.Request) (int, error) {
	src.Reset()
	n := 0
	for ; ; n++ {
		if n&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return n, err
			}
		}
		r, ok := src.Next()
		if !ok {
			break
		}
		if reqs != nil {
			if n == len(reqs) {
				return n, fmt.Errorf("source yields more than the %d requests its counting sweep saw", len(reqs))
			}
			reqs[n] = r
		}
	}
	if err := src.Err(); err != nil {
		return n, err
	}
	if reqs != nil && n != len(reqs) {
		return n, fmt.Errorf("source yields %d requests, its counting sweep saw %d", n, len(reqs))
	}
	return n, nil
}
