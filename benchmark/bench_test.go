package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"autoblox"
)

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{1, 0, false},
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if q != c.q || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %g, %v; want %g, %v", c.n, q, ok, c.q, c.ok)
		}
	}
	// Property: the chosen percentile leaves at least minTail samples
	// beyond it, and no higher candidate does.
	for n := 1; n <= 20000; n++ {
		q, ok := tailQuantile(n)
		if !ok {
			if n-rank(0.5, n) >= minTail {
				t.Fatalf("n=%d: median leaves %d samples beyond but no tail chosen", n, n-rank(0.5, n))
			}
			continue
		}
		if beyond := n - rank(q, n); beyond < minTail {
			t.Fatalf("n=%d: p%g leaves only %d samples beyond", n, q*100, beyond)
		}
		for _, c := range tailCandidates {
			if c > q && n-rank(c, n) >= minTail {
				t.Fatalf("n=%d: chose p%g although p%g leaves %d samples beyond", n, q*100, c*100, n-rank(c, n))
			}
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 5 {
		t.Errorf("p90 = %g, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 || maxOf(nil) != 0 {
		t.Error("empty samples should give 0")
	}
}

func sp(start, end int64) span { return span{Op: 1, Start: start, End: end} }

func TestSelfTimeSubtractsIntervalUnion(t *testing.T) {
	parent := span{Op: 1, ID: 1, Start: 0, End: 100}
	cases := []struct {
		name string
		kids []span
		want time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(10, 20), sp(30, 40)}, 80},
		{"overlapping counted once", []span{sp(10, 50), sp(30, 60)}, 50},
		{"nested", []span{sp(10, 90), sp(20, 30)}, 20},
		{"touching", []span{sp(10, 20), sp(20, 30)}, 80},
		{"clipped to parent", []span{sp(-50, 10), sp(90, 200)}, 80},
		{"outside parent", []span{sp(100, 150), sp(-20, 0)}, 100},
		{"unsorted", []span{sp(70, 80), sp(10, 20), sp(15, 25)}, 75},
		{"covers all", []span{sp(0, 60), sp(50, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestWriteSpansRecordsSelfTime(t *testing.T) {
	r := newRecorder()
	base := r.epoch
	at := func(ns int64) time.Time { return base.Add(time.Duration(ns)) }
	root := r.add(1, 0, "op", at(0), at(100))
	r.add(1, root, "child", at(10), at(40))
	r.add(1, root, "child", at(30), at(50))
	r.add(2, 0, "op", at(0), at(10)) // another operation: not a child of op 1
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, r.snapshot()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []spanRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec spanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 4 {
		t.Fatalf("%d span records, want 4", len(recs))
	}
	if recs[0].SelfNS != 60 || recs[1].SelfNS != 30 || recs[3].SelfNS != 10 {
		t.Errorf("self times %d %d %d, want 60 30 10", recs[0].SelfNS, recs[1].SelfNS, recs[3].SelfNS)
	}
	if recs[1].Parent != recs[0].ID || recs[1].Op != 1 {
		t.Errorf("child span %+v does not point at its parent", recs[1].span)
	}
}

func TestDominatedPair(t *testing.T) {
	pt := func(grade, watts float64, life int64) autoblox.FrontPoint {
		return autoblox.FrontPoint{Grade: grade, PowerWatts: watts, LifetimeNS: life}
	}
	tradeOff := []autoblox.FrontPoint{pt(1.0, 5, 1e12), pt(0.8, 3, 1e12), pt(0.6, 4, 0)}
	if i, j, ok := dominatedPair(tradeOff); ok {
		t.Errorf("trade-off front reported %d dominating %d", i, j)
	}
	dominated := []autoblox.FrontPoint{pt(1.0, 5, 1e12), pt(0.9, 5, 1e12)}
	if i, j, ok := dominatedPair(dominated); !ok || i != 0 || j != 1 {
		t.Errorf("dominatedPair = %d, %d, %v; want 0, 1, true", i, j, ok)
	}
	equal := []autoblox.FrontPoint{pt(1.0, 5, 1e12), pt(1.0, 5, 1e12)}
	if _, _, ok := dominatedPair(equal); ok {
		t.Error("equal objective vectors must not dominate each other")
	}
	// A lifetime of 0 means no wear observed: unbounded, so better than
	// any finite projection.
	unbounded := []autoblox.FrontPoint{pt(1.0, 5, 0), pt(1.0, 5, 1e15)}
	if i, j, ok := dominatedPair(unbounded); !ok || i != 0 || j != 1 {
		t.Errorf("unbounded lifetime: dominatedPair = %d, %d, %v; want 0, 1, true", i, j, ok)
	}
}

func TestClosedLoopRunsAtLeastMinOps(t *testing.T) {
	n := 0
	if err := closedLoop(0, 2, func(int) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("ran %d operations with a zero budget, want 2", n)
	}
	n = 0
	if err := closedLoop(50*time.Millisecond, 1, func(int) error { n++; time.Sleep(10 * time.Millisecond); return nil }); err != nil {
		t.Fatal(err)
	}
	if n < 3 || n > 6 {
		t.Errorf("ran %d 10ms operations in a 50ms budget", n)
	}
}

// TestBenchmarkJSONMatchesCode keeps the committed benchmark definition
// and the metrics the program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(def.Workloads), len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
}

// smoke runs one workload on tiny inputs, untraced and traced, and checks
// that its outputs pass and every metric of the set is reported.
func smoke(t *testing.T, name string) {
	if testing.Short() {
		t.Skip("smoke runs simulate")
	}
	for _, traced := range []bool{false, true} {
		cfg := runConfig{workload: name, seed: 1, corpusSeed: 42, traced: traced, smoke: true, workdir: t.TempDir()}
		rep, err := workloads[name](context.Background(), cfg)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		rep.e2e["peak_rss_mb"] = peakRSSMB()
		res := result(rep, traced)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d failures=%v", traced, res.Correct, res.Attempted, res.Failed, rep.failures)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
			if len(rep.spans) == 0 {
				t.Errorf("traced run recorded no spans")
			}
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok {
				t.Errorf("traced=%v: metric %s missing", traced, d.name)
			}
			// A tiny tune may not beat the reference (grade 0); at full
			// size best_grade is positive.
			if !traced && m.Value <= 0 && d.name != "best_grade" {
				t.Errorf("end-to-end metric %s = %g, want > 0", d.name, m.Value)
			}
		}
	}
}

func TestSmokeTuneScalar(t *testing.T)        { smoke(t, "tune-scalar") }
func TestSmokeTunePareto(t *testing.T)        { smoke(t, "tune-pareto") }
func TestSmokeReplaySmallDevice(t *testing.T) { smoke(t, "replay-small-device") }

func TestSameTuneToleratesLastBitsOnly(t *testing.T) {
	tune := func(grade, hv float64, sims int64) tuneOutcome {
		return tuneOutcome{res: &autoblox.TuneResult{BestGrade: grade, Hypervolume: hv}, sims: sims}
	}
	a := tune(0.9249050320302, 0.44145268090115, 121)
	if d, bits := sameTune(a, a); d != "" || bits {
		t.Errorf("identical tunes: %q, bits %v", d, bits)
	}
	b := tune(math.Nextafter(a.res.BestGrade, 1), math.Nextafter(a.res.Hypervolume, 0), 121)
	if d, bits := sameTune(a, b); d != "" || !bits {
		t.Errorf("last-bit difference: %q, bits %v; want no difference reported, bits true", d, bits)
	}
	for _, c := range []tuneOutcome{
		tune(a.res.BestGrade*(1+1e-6), a.res.Hypervolume, 121),
		tune(a.res.BestGrade, a.res.Hypervolume*(1-1e-6), 121),
		tune(a.res.BestGrade, a.res.Hypervolume, 122),
	} {
		if d, _ := sameTune(a, c); d == "" {
			t.Errorf("difference beyond the tolerance not reported: %+v vs %+v", *a.res, *c.res)
		}
	}
}

func TestCalibratorPassDoesNotAllocate(t *testing.T) {
	c := newCalibrator()
	if n := testing.AllocsPerRun(3, func() { c.pass() }); n != 0 {
		t.Errorf("calibration pass allocates %v times; it must not depend on the heap", n)
	}
	c.block()
	if len(c.passes) != calibPasses || c.scale() <= 0 {
		t.Errorf("block recorded %d passes, scale %g", len(c.passes), c.scale())
	}
	t.Logf("calibration passes: %v s", c.passes)
}

func TestReferenceSecondsUseBracketingBlocks(t *testing.T) {
	c := &calibrator{passes: []float64{0.05, 0.04, 0.06, 0.03, 0.07}}
	mark := c.mark()
	if mark != 0 {
		t.Fatalf("mark %d, want 0", mark)
	}
	// An operation's factor uses the block before it, its own samples
	// and the block after it: here the median of all twelve passes, 0.09.
	c.passes = append(c.passes, 0.9, 0.2, 0.3, 0.1, 0.2, 0.9, 0.08)
	want := refPass.Seconds() / 0.09
	if f := c.factor(mark); math.Abs(f-want) > 1e-12 {
		t.Errorf("factor = %g, want %g", f, want)
	}
	var s samples
	s.add(1)
	s.add(2)
	s.settle(2)
	s.add(3)
	s.settle(10)
	if len(s.ref) != 3 || s.ref[0] != 2 || s.ref[1] != 4 || s.ref[2] != 30 {
		t.Errorf("settled reference samples %v, want [2 4 30]", s.ref)
	}
}
