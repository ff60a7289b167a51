package core

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"autoblox/internal/autodb"
	"autoblox/internal/ssdconf"
	"autoblox/internal/workload"
)

func TestRandomSearchBasics(t *testing.T) {
	space, v, g, ref := smallTunerEnv(t)
	res, err := RandomSearch(context.Background(), space, v, g, string(workload.Database),
		[]ssdconf.Config{ref}, TunerOptions{Seed: 5, MaxIterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestGrade < 0 {
		t.Fatalf("random search regressed below the reference: %g", res.BestGrade)
	}
	if res.Iterations != 8 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	if err := space.CheckConstraints(res.Best); err != nil {
		t.Fatalf("best config violates constraints: %v", err)
	}
	if len(res.BestPerf) != 3 {
		t.Fatalf("BestPerf covers %d clusters", len(res.BestPerf))
	}
}

// remoteBackend plays a distributed fleet: it simulates each job on a
// private validator, so every result reaches the tuning validator as a
// remote result and none as a local simulation.
type remoteBackend struct {
	inner *Validator
	jobs  atomic.Int64
	c     BackendCounters
}

func (b *remoteBackend) Measure(ctx context.Context, job Job) (autodb.Perf, error) {
	b.jobs.Add(1)
	perf, _, err := b.inner.simulate(ctx, job)
	return perf, err
}

func (b *remoteBackend) Stats() BackendStats { return b.c.Snapshot("remote") }

// TestRandomSearchCountsRemoteMeasurements checks that SimRuns counts
// fresh measurements wherever they ran, as Tune does: with a backend
// set, every measurement of the search is a remote result.
func TestRandomSearchCountsRemoteMeasurements(t *testing.T) {
	space, v, g, ref := smallTunerEnv(t)
	be := &remoteBackend{inner: NewValidator(space, nil)}
	v.Backend = be
	res, err := RandomSearch(context.Background(), space, v, g, string(workload.Database),
		[]ssdconf.Config{ref}, TunerOptions{Seed: 5, MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if jobs := int(be.jobs.Load()); jobs == 0 || res.SimRuns != jobs {
		t.Fatalf("SimRuns = %d, backend measured %d jobs", res.SimRuns, jobs)
	}
}

func TestRandomSearchErrors(t *testing.T) {
	space, v, g, ref := smallTunerEnv(t)
	if _, err := RandomSearch(context.Background(), space, v, g, "nope", []ssdconf.Config{ref}, TunerOptions{}); err == nil {
		t.Fatal("unknown target should fail")
	}
	if _, err := RandomSearch(context.Background(), space, v, g, string(workload.Database), nil, TunerOptions{}); err == nil {
		t.Fatal("no initials should fail")
	}
}

func TestRandomValidConfigRespectsConstraints(t *testing.T) {
	space, _, _, _ := smallTunerEnv(t)
	rng := newTestRNG(3)
	for i := 0; i < 20; i++ {
		cfg := randomValidConfig(space, rng)
		if cfg == nil {
			continue
		}
		if err := space.CheckConstraints(cfg); err != nil {
			t.Fatalf("sample %d violates constraints: %v", i, err)
		}
	}
}

// TestBOBeatsRandomAtEqualBudget is the §3.2 ablation: the GPR-guided
// search should not lose to uniform random sampling given the same
// validation budget (statistically it wins clearly; with the shared
// validation cache this small check just guards against regressions
// where the BO loop becomes worse than blind sampling).
func TestBOBeatsRandomAtEqualBudget(t *testing.T) {
	space, v, g, ref := smallTunerEnv(t)
	opts := TunerOptions{Seed: 11, MaxIterations: 10, SGDSteps: 4}
	tuner, err := NewTuner(space, v, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	bo, err := tuner.Tune(context.Background(), string(workload.CloudStorage), []ssdconf.Config{ref})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RandomSearch(context.Background(), space, v, g, string(workload.CloudStorage), []ssdconf.Config{ref}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bo.BestGrade < rnd.BestGrade-0.25 {
		t.Fatalf("BO grade %g clearly lost to random %g", bo.BestGrade, rnd.BestGrade)
	}
}

// newTestRNG gives tests a seeded *rand.Rand without importing math/rand
// at every call site.
func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
