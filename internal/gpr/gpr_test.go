package gpr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKernelBasics(t *testing.T) {
	a, b := []float64{0, 0}, []float64{1, 1}
	rbf := NewRBF(2, 1)
	if got := rbf.Eval(a, a); math.Abs(got-2) > 1e-12 {
		t.Fatalf("RBF(a,a) = %g, want variance 2", got)
	}
	if rbf.Eval(a, b) >= rbf.Eval(a, a) {
		t.Fatal("RBF must decay with distance")
	}
	rq := NewRationalQuadratic(3, 1, 1)
	if got := rq.Eval(a, a); math.Abs(got-3) > 1e-12 {
		t.Fatalf("RQ(a,a) = %g, want 3", got)
	}
	w := NewWhite(0.5)
	if w.Eval(a, a) != 0.5 || w.Eval(a, b) != 0 {
		t.Fatal("White kernel wrong")
	}
	sum := NewSum(rbf, rq, w)
	if got := sum.Eval(a, b); math.Abs(got-(rbf.Eval(a, b)+rq.Eval(a, b))) > 1e-12 {
		t.Fatalf("Sum.Eval wrong: %g", got)
	}
}

func TestKernelParamsRoundTrip(t *testing.T) {
	kernels := []Kernel{NewRBF(1.5, 0.7), NewRationalQuadratic(2, 3, 0.5), NewWhite(0.01), DefaultKernel()}
	for _, k := range kernels {
		p := k.Params()
		k.SetParams(p)
		p2 := k.Params()
		for i := range p {
			if math.Abs(p[i]-p2[i]) > 1e-12 {
				t.Fatalf("%s params not round-trippable: %v vs %v", k.Name(), p, p2)
			}
		}
	}
}

func TestSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(5)
		a := make([]float64, d)
		b := make([]float64, d)
		for i := 0; i < d; i++ {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		k := DefaultKernel()
		return math.Abs(k.Eval(a, b)-k.Eval(b, a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitErrors(t *testing.T) {
	g := New(nil)
	if err := g.Fit(nil, nil); err == nil {
		t.Fatal("expected error on empty fit")
	}
	if err := g.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error on length mismatch")
	}
	if err := g.Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error on ragged input")
	}
	if _, _, err := New(nil).Predict([][]float64{{1}}); err == nil {
		t.Fatal("expected error on predict before fit")
	}
}

func TestInterpolatesTrainingPoints(t *testing.T) {
	// With a tiny white-noise term the GP should nearly interpolate.
	x := [][]float64{{0}, {1}, {2}, {3}, {4}}
	y := []float64{0, 1, 4, 9, 16}
	g := New(NewSum(NewRBF(10, 1.5), NewWhite(1e-6)))
	g.OptimizeHyperparams = false
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	mean, std, err := g.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(mean[i]-y[i]) > 0.05 {
			t.Fatalf("mean[%d] = %g, want ~%g", i, mean[i], y[i])
		}
		if std[i] > 0.2 {
			t.Fatalf("std at training point too high: %g", std[i])
		}
	}
}

func TestUncertaintyGrowsAwayFromData(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []float64{1, 2, 3}
	g := New(NewSum(NewRBF(1, 1), NewWhite(1e-4)))
	g.OptimizeHyperparams = false
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	_, stdNear, _ := g.Predict([][]float64{{1.1}})
	_, stdFar, _ := g.Predict([][]float64{{10}})
	if stdFar[0] <= stdNear[0] {
		t.Fatalf("std should grow away from data: near=%g far=%g", stdNear[0], stdFar[0])
	}
}

func TestPredictRevertsToMeanFarAway(t *testing.T) {
	x := [][]float64{{0}, {1}}
	y := []float64{10, 12}
	g := New(NewSum(NewRBF(1, 0.5), NewWhite(1e-4)))
	g.OptimizeHyperparams = false
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	m, _, _ := g.Predict([][]float64{{100}})
	if math.Abs(m[0]-11) > 0.01 { // trained mean = 11
		t.Fatalf("far prediction %g should revert to mean 11", m[0])
	}
	if math.Abs(g.mean-11) > 1e-12 {
		t.Fatalf("trained mean = %g", g.mean)
	}
}

func TestHyperparameterOptimizationImprovesLML(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var x [][]float64
	var y []float64
	for i := 0; i < 25; i++ {
		xi := rng.Float64() * 10
		x = append(x, []float64{xi})
		y = append(y, math.Sin(xi)+rng.NormFloat64()*0.05)
	}
	fixed := New(DefaultKernel())
	fixed.OptimizeHyperparams = false
	if err := fixed.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	tuned := New(DefaultKernel())
	if err := tuned.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if lt, lf := fittedLML(tuned, y), fittedLML(fixed, y); lt < lf-1e-9 {
		t.Fatalf("optimization decreased LML: %g -> %g", lf, lt)
	}
}

// fittedLML is the log marginal likelihood of a fitted GP on its
// training targets y.
func fittedLML(g *GP, y []float64) float64 {
	resid := make([]float64, len(y))
	for i, v := range y {
		resid[i] = v - g.mean
	}
	return g.logMarginalLikelihood(g.chol, resid, g.alpha)
}

// Property: posterior std is non-negative and finite for arbitrary query
// points.
func TestPosteriorStdProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		d := 1 + rng.Intn(3)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = make([]float64, d)
			for j := range x[i] {
				x[i][j] = rng.NormFloat64() * 3
			}
			y[i] = rng.NormFloat64()
		}
		g := New(nil)
		g.OptimizeHyperparams = false
		if err := g.Fit(x, y); err != nil {
			return false
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.NormFloat64() * 5
		}
		_, std, err := g.Predict([][]float64{q})
		if err != nil {
			return false
		}
		s := std[0]
		return s >= 0 && !math.IsNaN(s) && !math.IsInf(s, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateTrainingPoints(t *testing.T) {
	// Duplicate inputs with different targets must not crash (white noise
	// + jitter absorbs them).
	x := [][]float64{{1}, {1}, {2}}
	y := []float64{1, 1.2, 3}
	g := New(DefaultKernel())
	g.OptimizeHyperparams = false
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	m, _, err := g.Predict([][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if m[0] < 0.5 || m[0] > 1.8 {
		t.Fatalf("prediction at duplicated point = %g, want ~1.1", m[0])
	}
}

func TestExpectedImprovement(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []float64{1, 2, 3}
	g := New(NewSum(NewRBF(1, 1), NewWhite(1e-4)))
	g.OptimizeHyperparams = false
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// EI is non-negative everywhere.
	for _, q := range []float64{-5, 0.5, 1.5, 3, 10} {
		ei, err := g.ExpectedImprovement([]float64{q}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if ei < 0 {
			t.Fatalf("EI(%g) = %g < 0", q, ei)
		}
	}
	// EI at a training point well below the incumbent is ~0; EI in
	// unexplored territory is positive (uncertainty pays).
	eiKnownBad, _ := g.ExpectedImprovement([]float64{0}, 3)
	eiUnknown, _ := g.ExpectedImprovement([]float64{10}, 3)
	if eiKnownBad > eiUnknown {
		t.Fatalf("EI at a known-bad point (%g) should not exceed unexplored (%g)", eiKnownBad, eiUnknown)
	}
}
