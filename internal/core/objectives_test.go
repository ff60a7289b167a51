package core

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"autoblox/internal/ssdconf"
)

func mustSpec(t testing.TB, s string) ssdconf.ObjectiveSpec {
	t.Helper()
	spec, err := ssdconf.ParseObjectiveSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestObjectiveVecOrientation(t *testing.T) {
	spec := mustSpec(t, "perf,power,lifetime")
	v := objectiveVec(spec, 1.5, 4.0, int64(1e9))
	if v[0] != 1.5 {
		t.Fatalf("perf axis = %g, want 1.5", v[0])
	}
	if v[1] != -4.0 {
		t.Fatalf("power axis = %g, want -4 (maximize-all negates watts)", v[1])
	}
	if want := math.Log1p(1e9); v[2] != want {
		t.Fatalf("lifetime axis = %g, want %g", v[2], want)
	}
	// Unbounded lifetime (no erases) must dominate every finite one.
	unbounded := objectiveVec(spec, 1.5, 4.0, 0)
	if unbounded[2] <= v[2] {
		t.Fatalf("unbounded lifetime %g not above finite %g", unbounded[2], v[2])
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b Objectives
		want bool
	}{
		{Objectives{1, 1}, Objectives{0, 0}, true},
		{Objectives{1, 0}, Objectives{0, 0}, true},
		{Objectives{0, 0}, Objectives{0, 0}, false}, // equal: no strict better
		{Objectives{1, 0}, Objectives{0, 1}, false}, // incomparable
		{Objectives{0, 1}, Objectives{1, 0}, false},
		{Objectives{0, 0}, Objectives{1, 1}, false},
	}
	for i, c := range cases {
		if got := dominates(c.a, c.b); got != c.want {
			t.Fatalf("case %d: dominates(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestNondominatedSortRanks(t *testing.T) {
	// Rank 0: (4,1), (1,4), (3,3). (2,2) is dominated by (3,3), and
	// (1,1) by everything else.
	vecs := []Objectives{{2, 2}, {4, 1}, {1, 4}, {1, 1}, {3, 3}}
	front := nondominated(vecs)
	want := []int{1, 2, 4}
	if !reflect.DeepEqual(front, want) {
		t.Fatalf("front = %v, want %v", front, want)
	}
}

func TestCrowdingDistances(t *testing.T) {
	vecs := []Objectives{{0, 4}, {1, 3}, {2, 2}, {3, 1}, {4, 0}}
	front := []int{0, 1, 2, 3, 4}
	dist := crowdingDistances(vecs, front)
	if !math.IsInf(dist[0], 1) || !math.IsInf(dist[4], 1) {
		t.Fatalf("boundary distances not +Inf: %v %v", dist[0], dist[4])
	}
	// Interior points of the evenly spaced line all have equal crowding.
	if dist[1] != dist[2] || dist[2] != dist[3] {
		t.Fatalf("interior crowding uneven: %v %v %v", dist[1], dist[2], dist[3])
	}
	// Each axis contributes (gap of 2)/(span of 4) = 0.5 → total 1.0.
	if want := 1.0; math.Abs(dist[2]-want) > 1e-12 {
		t.Fatalf("interior crowding = %g, want %g", dist[2], want)
	}
}

func TestHypervolume2D(t *testing.T) {
	// Normalized corners: a single point at the max of both axes
	// dominates the whole unit square.
	vecs := []Objectives{{0, 0}, {1, 1}}
	if hv := hypervolume(vecs, []int{1}); math.Abs(hv-1.0) > 1e-12 {
		t.Fatalf("dominant point hv = %g, want 1", hv)
	}
	// Two staircase points: (1, 0.5) and (0.5, 1) → 0.5*1 + 0.5*0.5 = 0.75.
	vecs = []Objectives{{0, 0}, {1, 0.5}, {0.5, 1}}
	if hv := hypervolume(vecs, []int{1, 2}); math.Abs(hv-0.75) > 1e-12 {
		t.Fatalf("staircase hv = %g, want 0.75", hv)
	}
}

func TestHypervolume3D(t *testing.T) {
	// One point dominating the cube.
	vecs := []Objectives{{0, 0, 0}, {1, 1, 1}}
	if hv := hypervolume(vecs, []int{1}); math.Abs(hv-1.0) > 1e-12 {
		t.Fatalf("cube hv = %g, want 1", hv)
	}
	// Two disjoint half-height boxes: (1,0.5,1) and (0.5,1,1) share the
	// z=1 slab whose 2D area is 0.75.
	vecs = []Objectives{{0, 0, 0}, {1, 0.5, 1}, {0.5, 1, 1}}
	if hv := hypervolume(vecs, []int{1, 2}); math.Abs(hv-0.75) > 1e-12 {
		t.Fatalf("slab hv = %g, want 0.75", hv)
	}
}

func TestBuildFrontDeterministicOrder(t *testing.T) {
	spec := mustSpec(t, "perf,power")
	mk := func(key int, grade, power float64) entry {
		return entry{cfg: ssdconf.Config{key}, grade: grade, power: power}
	}
	validated := []entry{
		mk(1, 0.9, 2.0), // front (best grade)
		mk(2, 0.5, 1.0), // front (best power)
		mk(3, 0.4, 1.5), // dominated by both
		mk(4, 0.7, 1.2), // front (middle)
	}
	front, hv := buildFront(spec, validated)
	if len(front) != 3 {
		t.Fatalf("front size = %d, want 3", len(front))
	}
	// Report order is grade-descending.
	for i := 1; i < len(front); i++ {
		if front[i].Grade > front[i-1].Grade {
			t.Fatalf("front not grade-descending at %d", i)
		}
	}
	if hv <= 0 || hv > 1 {
		t.Fatalf("hypervolume = %g, want (0,1]", hv)
	}
	// Permuting the validated order must not change the reported front.
	perm := []entry{validated[3], validated[2], validated[0], validated[1]}
	front2, _ := buildFront(spec, perm)
	if !reflect.DeepEqual(front, front2) {
		t.Fatalf("front depends on validated order:\n%v\n%v", front, front2)
	}
}

func TestSearchWeightsCycle(t *testing.T) {
	for iter := 0; iter < 6; iter++ {
		w := searchWeights(3, iter)
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("iter %d: weights sum %g, want 1", iter, sum)
		}
		hot := iter % 3
		for i, v := range w {
			if i == hot && v != 0.6 {
				t.Fatalf("iter %d: hot axis weight %g, want 0.6", iter, v)
			}
			if i != hot && v != 0.2 {
				t.Fatalf("iter %d: cold axis weight %g, want 0.2", iter, v)
			}
		}
	}
}

func TestUpgradeCheckpointVersions(t *testing.T) {
	v1 := &checkpointFile{Version: 1}
	if err := upgradeCheckpoint(v1, false); err != nil {
		t.Fatalf("v1 scalar upgrade: %v", err)
	}
	if v1.Version != checkpointVersion {
		t.Fatalf("upgraded version = %d, want %d", v1.Version, checkpointVersion)
	}
	if err := upgradeCheckpoint(&checkpointFile{Version: 1}, true); !errors.Is(err, ErrCheckpointIncompatible) {
		t.Fatalf("v1 pareto upgrade: %v, want ErrCheckpointIncompatible", err)
	}
	if err := upgradeCheckpoint(&checkpointFile{Version: checkpointVersion}, true); err != nil {
		t.Fatalf("current-version upgrade: %v", err)
	}
	if err := upgradeCheckpoint(&checkpointFile{Version: 99}, false); !errors.Is(err, ErrCheckpointIncompatible) {
		t.Fatalf("future-version upgrade: %v, want ErrCheckpointIncompatible", err)
	}
}

// FuzzCheckpointLoad feeds arbitrary bytes through the checkpoint
// load + schema-migration path; whatever the file holds, the pipeline
// must return errors, never panic.
func FuzzCheckpointLoad(f *testing.F) {
	f.Add([]byte(`{"version":1,"target":"Database","seed":42,"space_sig":"abc",` +
		`"validated":[{"cfg":[0,1,2],"grade":0.5,"target_perf":1,"lat_speedup":1,"tput_speedup":1,"full":true}],` +
		`"seen":["aa."],"cache":[]}`))
	f.Add([]byte(`{"version":2,"objectives":["perf","power","lifetime"],` +
		`"front":[{"cfg":[1],"grade":0.9,"power_watts":2,"lifetime_ns":1000}],` +
		`"validated":[{"cfg":[1],"grade":0.9,"power_watts":2,"lifetime_ns":1000}]}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := loadCheckpoint(path)
		if err != nil {
			return // parse rejection is fine; panics are not
		}
		for _, pareto := range []bool{false, true} {
			cp := *ck
			if uerr := upgradeCheckpoint(&cp, pareto); uerr != nil && !errors.Is(uerr, ErrCheckpointIncompatible) {
				t.Fatalf("upgrade returned untyped error: %v", uerr)
			}
			if pareto && ck.Version == 1 {
				if uerr := upgradeCheckpoint(&checkpointFile{Version: 1}, true); !errors.Is(uerr, ErrCheckpointIncompatible) {
					t.Fatalf("v1 pareto resume must be incompatible, got %v", uerr)
				}
			}
		}
	})
}

// benchEntries builds a synthetic validated set with clustered
// objective values, the shape the sort sees mid-run.
func benchEntries(n int) []entry {
	rng := rand.New(rand.NewSource(1))
	out := make([]entry, n)
	for i := range out {
		out[i] = entry{
			cfg:        ssdconf.Config{i, i % 7, i % 13},
			grade:      rng.Float64(),
			power:      2 + 3*rng.Float64(),
			lifetimeNS: int64(1e12 * rng.Float64()),
		}
	}
	return out
}

func BenchmarkParetoSort(b *testing.B) {
	spec, err := ssdconf.ParseObjectiveSpec("perf,power,lifetime")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1000, 10000} {
		entries := benchEntries(n)
		b.Run(map[int]string{1000: "1k", 10000: "10k"}[n], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if idx := frontIndices(spec, entries); len(idx) == 0 {
					b.Fatal("empty front")
				}
			}
		})
	}
}
