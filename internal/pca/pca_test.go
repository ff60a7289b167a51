package pca

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"autoblox/internal/linalg"
)

func TestFitErrors(t *testing.T) {
	if _, err := Fit(linalg.NewMatrix(0, 0), 1); err == nil {
		t.Fatal("expected error on empty data")
	}
	data := linalg.FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := Fit(data, 0); err == nil {
		t.Fatal("expected error on k=0")
	}
	if _, err := Fit(data, 3); err == nil {
		t.Fatal("expected error on k>features")
	}
}

func TestKnownDirection(t *testing.T) {
	// Points along the line y = 2x with tiny orthogonal noise: first
	// component must align with (1,2)/√5.
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 200)
	for i := range rows {
		x := rng.NormFloat64() * 10
		rows[i] = []float64{x + rng.NormFloat64()*0.01, 2*x + rng.NormFloat64()*0.01}
	}
	p, err := Fit(linalg.FromRows(rows), 2)
	if err != nil {
		t.Fatal(err)
	}
	c0 := p.Components.Row(0)
	// Direction up to sign.
	ratio := c0[1] / c0[0]
	if math.Abs(ratio-2) > 0.05 {
		t.Fatalf("first component %v, want direction (1,2)", c0)
	}
	if p.ExplainedVarianceRatio[0] < 0.99 {
		t.Fatalf("first component should explain ~all variance, got %v", p.ExplainedVarianceRatio)
	}
}

func TestTransformDimensions(t *testing.T) {
	data := linalg.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}})
	p, proj, err := FitTransform(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Rows != 3 || proj.Cols != 2 {
		t.Fatalf("projection dims = %dx%d, want 3x2", proj.Rows, proj.Cols)
	}
	one, err := p.Transform(linalg.FromRows([][]float64{{1, 2, 3}}))
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if math.Abs(one.At(0, j)-proj.At(0, j)) > 1e-12 {
			t.Fatalf("single-row Transform disagrees with batch: %v vs %v", one.Row(0), proj.Row(0))
		}
	}
}

func TestTransformFeatureMismatch(t *testing.T) {
	data := linalg.FromRows([][]float64{{1, 2}, {3, 4}, {5, 7}})
	p, err := Fit(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Transform(linalg.FromRows([][]float64{{1, 2, 3}})); err == nil {
		t.Fatal("expected feature-count mismatch error")
	}
}

// Property: total variance of a full-rank projection equals the total
// variance of the input (PCA is a rotation).
func TestVariancePreservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 20+rng.Intn(30), 2+rng.Intn(4)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64() * float64(1+j)
			}
		}
		data := linalg.FromRows(rows)
		p, proj, err := FitTransform(data, d)
		if err != nil {
			return false
		}
		origVar := totalVariance(data)
		projVar := totalVariance(proj)
		if math.Abs(origVar-projVar) > 1e-6*math.Max(1, origVar) {
			return false
		}
		// Ratios sum to ~1 for a full decomposition.
		var sum float64
		for _, r := range p.ExplainedVarianceRatio {
			sum += r
		}
		return math.Abs(sum-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: explained variance is non-increasing.
func TestExplainedVarianceOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 15+rng.Intn(20), 2+rng.Intn(5)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
			}
		}
		p, err := Fit(linalg.FromRows(rows), d)
		if err != nil {
			return false
		}
		for i := 1; i < d; i++ {
			if p.ExplainedVariance[i] > p.ExplainedVariance[i-1]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func totalVariance(m *linalg.Matrix) float64 {
	n, d := m.Rows, m.Cols
	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		for j, v := range m.Row(i) {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	var tot float64
	for i := 0; i < n; i++ {
		for j, v := range m.Row(i) {
			dv := v - mean[j]
			tot += dv * dv
		}
	}
	return tot / float64(n-1)
}
