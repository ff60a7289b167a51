package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestTuneStatusSnapshot pins the single-source-of-truth contract: the
// snapshot that /tunez serves and the line the -progress ticker prints
// both derive from the same TuneStatus state.
func TestTuneStatusSnapshot(t *testing.T) {
	st := NewTuneStatus()
	reg := NewRegistry()
	sims := reg.Counter("validator_sim_runs_total")
	st.SetSims(sims)

	if s := st.Snapshot(); s.Running || s.Iteration != 0 || s.CheckpointAgeNS != -1 {
		t.Fatalf("fresh status snapshot: %+v", s)
	}

	st.Begin("Database", 89)
	sims.Add(12)
	st.Update(4, 0.8375) // OnIteration passes 0-based iter
	st.MarkCheckpoint("ck.json")

	s := st.Snapshot()
	if !s.Running || s.Target != "Database" || s.Iteration != 5 || s.TotalIterations != 89 {
		t.Fatalf("snapshot: %+v", s)
	}
	if s.BestGrade != 0.8375 || s.Sims != 12 || s.CheckpointPath != "ck.json" {
		t.Fatalf("snapshot: %+v", s)
	}
	if s.CheckpointAgeNS < 0 || s.ElapsedNS <= 0 {
		t.Fatalf("ages not tracked: %+v", s)
	}

	line := s.Line(3.5)
	for _, want := range []string{"progress: 12 sims", "(3.5/s)", "iter 5/89", "best 0.8375", "eta ", "ckpt "} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
	// NaN rate suppresses the rate clause (the /tunez rendering).
	if l := s.Line(math.NaN()); strings.Contains(l, "/s)") {
		t.Errorf("NaN rate still rendered: %q", l)
	}

	st.Done()
	if st.Snapshot().Running {
		t.Fatal("Done did not clear running")
	}
}

func TestTuneStatusNil(t *testing.T) {
	var st *TuneStatus
	st.Begin("x", 1)
	st.SetSims(nil)
	st.SetTotal(3)
	st.Update(0, 1)
	st.MarkCheckpoint("p")
	st.Done()
	if s := st.Snapshot(); s.Iteration != 0 || s.CheckpointAgeNS != -1 {
		t.Fatalf("nil snapshot: %+v", s)
	}
}

// TestProgressRendersTuneStatus pins the unification: the ticker's output
// comes from TuneSnapshot.Line over the shared status.
func TestProgressRendersTuneStatus(t *testing.T) {
	st := NewTuneStatus()
	reg := NewRegistry()
	sims := reg.Counter("sims")
	st.SetSims(sims)
	var buf strings.Builder
	p := NewProgress(&buf, st, 10*time.Millisecond)
	st.SetTotal(10)
	p.Start()
	sims.Add(5)
	st.Update(1, 0.5)
	time.Sleep(35 * time.Millisecond)
	p.Stop()
	out := buf.String()
	if !strings.Contains(out, "iter 2/10") || !strings.Contains(out, "best 0.5000") {
		t.Fatalf("ticker output missing shared state:\n%s", out)
	}
	if !strings.Contains(out, "progress: done: 5 sims") {
		t.Fatalf("missing final summary:\n%s", out)
	}
	if st.Snapshot().Running {
		t.Fatal("Stop did not mark the status done")
	}
}
