package gpr

import (
	"errors"
	"fmt"
	"math"

	"autoblox/internal/linalg"
)

// GP is a Gaussian-process regressor with a trainable constant mean.
type GP struct {
	Kernel Kernel
	// Jitter is added to the diagonal for numerical stability.
	Jitter float64
	// OptimizeHyperparams enables the log-marginal-likelihood
	// hyperparameter search during Fit (coordinate descent in log space).
	OptimizeHyperparams bool

	// Fitted state.
	x     [][]float64
	mean  float64 // trainable constant mean (the empirical mean of y)
	alpha []float64
	chol  *linalg.Matrix
}

// New returns a GP with the given kernel. A nil kernel selects
// DefaultKernel().
func New(k Kernel) *GP {
	if k == nil {
		k = DefaultKernel()
	}
	return &GP{Kernel: k, Jitter: 1e-8, OptimizeHyperparams: true}
}

// Fit conditions the GP on observations (x[i], y[i]).
func (g *GP) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 {
		return errors.New("gpr: no training points")
	}
	if len(x) != len(y) {
		return fmt.Errorf("gpr: %d inputs, %d targets", len(x), len(y))
	}
	d := len(x[0])
	for i, xi := range x {
		if len(xi) != d {
			return fmt.Errorf("gpr: ragged input at %d (%d dims, want %d)", i, len(xi), d)
		}
	}

	// Trainable mean: fit the empirical mean; the kernel models residuals.
	var mu float64
	for _, v := range y {
		mu += v
	}
	mu /= float64(len(y))

	g.x = make([][]float64, len(x))
	for i := range x {
		g.x[i] = append([]float64(nil), x[i]...)
	}
	g.mean = mu

	resid := make([]float64, len(y))
	for i, v := range y {
		resid[i] = v - mu
	}

	if g.OptimizeHyperparams && len(x) >= 4 {
		g.optimize(resid)
	}
	return g.refit(resid)
}

// refit recomputes the Cholesky factor and alpha for the current kernel.
func (g *GP) refit(resid []float64) error {
	kmat := gram(g.Kernel, g.x)
	jitter := g.Jitter
	var l *linalg.Matrix
	var err error
	for attempts := 0; attempts < 8; attempts++ {
		l, err = linalg.Cholesky(kmat.Clone().AddDiag(jitter))
		if err == nil {
			break
		}
		jitter *= 10
	}
	if err != nil {
		return fmt.Errorf("gpr: kernel matrix not positive definite even with jitter: %w", err)
	}
	g.chol = l
	g.alpha = linalg.SolveCholesky(l, resid)
	return nil
}

// logMarginalLikelihood computes log p(y | X, θ) for the current factor.
func (g *GP) logMarginalLikelihood(l *linalg.Matrix, resid, alpha []float64) float64 {
	n := len(resid)
	var logDet float64
	for i := 0; i < n; i++ {
		logDet += math.Log(l.At(i, i))
	}
	return -0.5*linalg.Dot(resid, alpha) - logDet - 0.5*float64(n)*math.Log(2*math.Pi)
}

// optimize performs a few rounds of coordinate descent on the kernel's
// log-space hyperparameters, maximizing the log marginal likelihood.
// Gradient-free by design: the hyperparameter count is tiny (≤6) and the
// grade surface is noisy, so golden-section-style bracketing per
// coordinate is robust and cheap.
func (g *GP) optimize(resid []float64) {
	eval := func(p []float64) float64 {
		g.Kernel.SetParams(p)
		kmat := gram(g.Kernel, g.x)
		l, err := linalg.Cholesky(kmat.Clone().AddDiag(g.Jitter))
		if err != nil {
			return math.Inf(-1)
		}
		alpha := linalg.SolveCholesky(l, resid)
		return g.logMarginalLikelihood(l, resid, alpha)
	}

	best := g.Kernel.Params()
	bestLML := eval(best)
	steps := []float64{1.0, 0.5, 0.25}
	for _, step := range steps {
		for c := 0; c < len(best); c++ {
			for _, dir := range []float64{+1, -1} {
				cand := append([]float64(nil), best...)
				cand[c] += dir * step
				// Keep hyperparameters in a sane log range.
				if cand[c] < -10 || cand[c] > 10 {
					continue
				}
				if lml := eval(cand); lml > bestLML {
					best, bestLML = cand, lml
				}
			}
		}
	}
	g.Kernel.SetParams(best)
}

// Predict returns the posterior mean and standard deviation at each query
// point.
func (g *GP) Predict(x [][]float64) (mean, std []float64, err error) {
	if g.chol == nil {
		return nil, nil, errors.New("gpr: Predict before Fit")
	}
	n := len(g.x)
	mean = make([]float64, len(x))
	std = make([]float64, len(x))
	kstar := make([]float64, n)
	for q, xq := range x {
		for i := 0; i < n; i++ {
			kstar[i] = g.Kernel.Eval(g.x[i], xq)
		}
		mean[q] = g.mean + linalg.Dot(kstar, g.alpha)

		// Solve L·v = k* for the variance term.
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			sum := kstar[i]
			for k := 0; k < i; k++ {
				sum -= g.chol.At(i, k) * v[k]
			}
			v[i] = sum / g.chol.At(i, i)
		}
		variance := g.Kernel.Eval(xq, xq) - linalg.Dot(v, v)
		if variance < 0 {
			variance = 0
		}
		std[q] = math.Sqrt(variance)
	}
	return mean, std, nil
}

// ExpectedImprovement returns the EI acquisition value at x against the
// incumbent best observation: E[max(f(x) - best, 0)] under the posterior.
// It weighs posterior mean against uncertainty when ranking candidate
// configurations.
func (g *GP) ExpectedImprovement(x []float64, best float64) (float64, error) {
	ms, ss, err := g.Predict([][]float64{x})
	if err != nil {
		return 0, err
	}
	m, s := ms[0], ss[0]
	if s <= 0 {
		if m > best {
			return m - best, nil
		}
		return 0, nil
	}
	z := (m - best) / s
	// Standard normal pdf and cdf.
	pdf := math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
	cdf := 0.5 * (1 + math.Erf(z/math.Sqrt2))
	return (m-best)*cdf + s*pdf, nil
}
