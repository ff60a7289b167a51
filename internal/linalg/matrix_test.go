package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("At returned wrong values: %v", m)
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatalf("Set failed")
	}
	c := m.Clone()
	c.Set(0, 0, 0)
	if m.At(0, 0) != 9 {
		t.Fatalf("Clone aliases original")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose dims = %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	for i := range c.Data {
		if c.Data[i] != want.Data[i] {
			t.Fatalf("Mul = %v, want %v", c, want)
		}
	}
}

func TestMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		p := m.Mul(Identity(n))
		for i := range p.Data {
			if !almostEqual(p.Data[i], m.Data[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := m.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestAddDiag(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	d := m.Clone().AddDiag(10)
	if d.At(0, 0) != 11 || d.At(1, 1) != 14 || d.At(0, 1) != 2 {
		t.Fatalf("AddDiag wrong: %v", d)
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		// Build SPD matrix A = B·Bᵀ + n·I.
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := b.Mul(b.T()).AddDiag(float64(n))
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		// Check L·Lᵀ ≈ A.
		recon := l.Mul(l.T())
		for i := range a.Data {
			if !almostEqual(recon.Data[i], a.Data[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyNotPD(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(m); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestSolveSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := b.Mul(b.T()).AddDiag(float64(n))
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		rhs := a.MulVec(xTrue)
		x, err := SolveSPD(a, rhs)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEqual(x[i], xTrue[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if v := []float64{3, 4}; !almostEqual(math.Sqrt(Dot(v, v)), 5, 1e-15) {
		t.Fatal("norm wrong")
	}
}

func TestEigenSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(vals[0], 3, 1e-9) || !almostEqual(vals[1], 1, 1e-9) {
		t.Fatalf("eigenvalues = %v, want [3 1]", vals)
	}
	// Check A·v = λ·v for the top eigenvector.
	v0 := []float64{vecs.At(0, 0), vecs.At(1, 0)}
	av := m.MulVec(v0)
	for i := range av {
		if !almostEqual(av[i], 3*v0[i], 1e-9) {
			t.Fatalf("A·v != λ·v: %v vs %v", av, v0)
		}
	}
}

// randSym returns (B + Bᵀ)/2 for an n×n matrix B of standard normals.
func randSym(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, (b.At(i, j)+b.At(j, i))*0.5)
		}
	}
	return a
}

func TestEigenSymProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		a := randSym(rng, n)
		vals, vecs, err := EigenSym(a)
		if err != nil {
			return false
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-9 {
				return false
			}
		}
		// A·v_i ≈ λ_i·v_i and the eigenvectors are unit length.
		for c := 0; c < n; c++ {
			v := make([]float64, n)
			for r := 0; r < n; r++ {
				v[r] = vecs.At(r, c)
			}
			if !almostEqual(math.Sqrt(Dot(v, v)), 1, 1e-6) {
				return false
			}
			av := a.MulVec(v)
			for r := 0; r < n; r++ {
				if !almostEqual(av[r], vals[c]*v[r], 1e-6) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEigenSymTraceInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		a := randSym(rng, n)
		var trace float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		vals, _, err := EigenSym(a)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		return almostEqual(sum, trace, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestEigenSymEmpty(t *testing.T) {
	vals, vecs, err := EigenSym(NewMatrix(0, 0))
	if err != nil || len(vals) != 0 || vecs.Rows != 0 {
		t.Fatalf("empty eigen failed: %v %v %v", vals, vecs, err)
	}
}
