package gpr

import (
	"math/rand"
	"testing"
)

func trainingSet(n, d int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = rng.NormFloat64()
	}
	return x, y
}

// BenchmarkFit100 measures conditioning a GP on 100 60-dim points — the
// typical surrogate size late in a tuning run.
func BenchmarkFit100(b *testing.B) {
	x, y := trainingSet(100, 60, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(nil)
		g.OptimizeHyperparams = false
		if err := g.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures a posterior evaluation against a 100-point
// GP — the per-candidate cost of the SGD search.
func BenchmarkPredict(b *testing.B) {
	x, y := trainingSet(100, 60, 2)
	g := New(nil)
	g.OptimizeHyperparams = false
	if err := g.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	q := [][]float64{x[0]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Predict(q); err != nil {
			b.Fatal(err)
		}
	}
}
