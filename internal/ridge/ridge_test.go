package ridge

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"autoblox/internal/linalg"
)

func TestFitErrors(t *testing.T) {
	if _, err := Fit(linalg.NewMatrix(0, 0), nil, Config{}); err == nil {
		t.Fatal("expected error on empty data")
	}
	x := linalg.FromRows([][]float64{{1}, {2}})
	if _, err := Fit(x, []float64{1}, Config{}); err == nil {
		t.Fatal("expected error on length mismatch")
	}
	if _, err := Fit(x, []float64{1, 2}, Config{Alpha: -1}); err == nil {
		t.Fatal("expected error on negative alpha")
	}
}

func TestRecoverLinearRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 300
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		rows[i] = []float64{a, b}
		y[i] = 3*a - 2*b + 5 + rng.NormFloat64()*0.01
	}
	m, err := Fit(linalg.FromRows(rows), y, Config{Alpha: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-3) > 0.05 || math.Abs(m.Coef[1]+2) > 0.05 {
		t.Fatalf("coef = %v, want [3 -2]", m.Coef)
	}
	if math.Abs(m.Intercept-5) > 0.05 {
		t.Fatalf("intercept = %g, want 5", m.Intercept)
	}
	if r2 := m.R2(linalg.FromRows(rows), y); r2 < 0.999 {
		t.Fatalf("R2 = %g", r2)
	}
}

func TestStandardizedCoefficientsComparable(t *testing.T) {
	// Feature 0 spans [0,1]; feature 1 spans [0,1e9]. Both contribute
	// equally to y, so standardized coefficients must be nearly equal.
	rng := rand.New(rand.NewSource(2))
	n := 400
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		a := rng.Float64()
		b := rng.Float64() * 1e9
		rows[i] = []float64{a, b}
		y[i] = a + b/1e9
	}
	m, err := Fit(linalg.FromRows(rows), y, Config{Alpha: 1e-6, Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-m.Coef[1]) > 0.06*math.Abs(m.Coef[0]) {
		t.Fatalf("standardized coefficients should match: %v", m.Coef)
	}
	// Prediction must still work in the raw space.
	if r2 := m.R2(linalg.FromRows(rows), y); r2 < 0.999 {
		t.Fatalf("R2 = %g", r2)
	}
}

func TestShrinkageMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 100
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		a := rng.NormFloat64()
		rows[i] = []float64{a}
		y[i] = 2 * a
	}
	x := linalg.FromRows(rows)
	var prev float64 = math.Inf(1)
	for _, alpha := range []float64{0.001, 1, 100, 10000} {
		m, err := Fit(x, y, Config{Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		w := math.Abs(m.Coef[0])
		if w > prev+1e-9 {
			t.Fatalf("|coef| should shrink with alpha: %g -> %g at alpha=%g", prev, w, alpha)
		}
		prev = w
	}
}

func TestConstantFeatureGetsZeroCoef(t *testing.T) {
	rows := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []float64{2, 4, 6, 8}
	m, err := Fit(linalg.FromRows(rows), y, Config{Alpha: 0.001, Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[1]) > 1e-9 {
		t.Fatalf("constant feature coefficient should be 0, got %g", m.Coef[1])
	}
}

// Property: predictions are invariant to whether standardization is used
// (up to regularization differences at tiny alpha).
func TestStandardizeInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 40+rng.Intn(40), 1+rng.Intn(3)
		rows := make([][]float64, n)
		y := make([]float64, n)
		w := make([]float64, d)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
			}
			y[i] = linalg.Dot(w, rows[i]) + rng.NormFloat64()*0.001
		}
		x := linalg.FromRows(rows)
		a, err1 := Fit(x, y, Config{Alpha: 1e-8})
		b, err2 := Fit(x, y, Config{Alpha: 1e-8, Standardize: true})
		if err1 != nil || err2 != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if math.Abs(a.PredictVec(x.Row(i))-b.PredictVec(x.Row(i))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
