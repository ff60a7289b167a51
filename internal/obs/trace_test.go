package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a deterministic clock: each call advances 1.5ms.
func fakeClock() func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * 1500 * time.Microsecond)
	}
}

// goldenTrace drives a fixed span sequence against a deterministic clock.
func goldenTrace(w *bytes.Buffer) *Tracer {
	tr := NewTracer(w)
	tr.now = fakeClock()
	tr.start = time.Unix(0, 0)
	s1 := tr.StartSpan("tune").Arg("target", "Database")
	s2 := tr.StartSpan("iteration").ArgInt("iter", 3).Lane(2)
	s2.End()
	tr.Complete("gc", 1, tr.start.Add(6*time.Millisecond), 0, "plane", "4")
	s1.End()
	return tr
}

// TestTraceGolden locks the Chrome trace_event JSONL wire format: one
// complete JSON object per line with fixed field order, microsecond
// timestamps, pid/tid lanes and string-valued args.
func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := goldenTrace(&buf)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.jsonl")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace output diverged from %s:\n got:\n%s\nwant:\n%s", golden, buf.String(), want)
	}
}

// TestTraceLinesAreValidJSON: every emitted line must parse standalone
// (the JSONL contract Perfetto relies on) and carry the trace_event
// required fields.
func TestTraceLinesAreValidJSON(t *testing.T) {
	var buf bytes.Buffer
	goldenTrace(&buf)
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("expected 3 event lines, got %d", len(lines))
	}
	for _, line := range lines {
		var ev struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line is not valid JSON: %v\n%s", err, line)
		}
		if ev.Name == "" || ev.Ph == "" || ev.Pid != 1 {
			t.Fatalf("missing required trace_event fields: %s", line)
		}
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan("x")
	if s != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	s.Arg("k", "v").ArgInt("i", 1).Lane(3)
	s.End() // must not panic

	SetTracer(nil)
	if got := StartSpan("global"); got != nil {
		t.Fatal("global StartSpan must return nil with no tracer installed")
	}
}

func TestGlobalTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	SetTracer(tr)
	defer SetTracer(nil)
	StartSpan("op").End()
	if buf.Len() == 0 {
		t.Fatal("global tracer did not record the span")
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.StartSpan("work").Lane(int64(g)).End()
			}
		}(g)
	}
	wg.Wait()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 800 {
		t.Fatalf("expected 800 events, got %d", len(lines))
	}
	for _, line := range lines {
		if !json.Valid(line) {
			t.Fatalf("interleaved write corrupted a line: %s", line)
		}
	}
}
