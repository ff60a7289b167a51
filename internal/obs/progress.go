package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress periodically prints a one-line status to a writer (typically
// stderr). It renders TuneSnapshot.Line from the same TuneStatus that
// backs the /tunez HTTP endpoint, so the ticker and the endpoint can
// never disagree. It is purely an observer: it never influences the
// computation it reports on.
type Progress struct {
	w        io.Writer
	st       *TuneStatus
	interval time.Duration

	start    time.Time
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewProgress builds a reporter over a tune status. A zero interval
// defaults to 2s.
func NewProgress(w io.Writer, st *TuneStatus, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if st == nil {
		st = NewTuneStatus()
	}
	return &Progress{
		w: w, st: st, interval: interval,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
}

// Start launches the ticker goroutine.
func (p *Progress) Start() {
	if p == nil {
		return
	}
	p.start = time.Now()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(p.interval)
		defer tick.Stop()
		lastSims := p.st.Snapshot().Sims
		lastTime := p.start
		for {
			select {
			case <-p.stop:
				return
			case now := <-tick.C:
				snap := p.st.Snapshot()
				rate := float64(snap.Sims-lastSims) / now.Sub(lastTime).Seconds()
				lastSims, lastTime = snap.Sims, now
				fmt.Fprintln(p.w, snap.Line(rate))
			}
		}
	}()
}

// Stop halts the ticker and prints a final summary line.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() {
		close(p.stop)
		<-p.done
		p.st.Done()
		elapsed := time.Since(p.start)
		cur := p.st.Snapshot().Sims
		fmt.Fprintf(p.w, "progress: done: %d sims in %v (%.1f sims/s)\n",
			cur, elapsed.Round(time.Millisecond), float64(cur)/elapsed.Seconds())
	})
}
