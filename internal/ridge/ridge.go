// Package ridge implements L2-regularized (ridge) linear regression.
//
// AutoBlox (§3.3) uses ridge regression for fine-grained parameter
// pruning: the regression coefficient of each (standardized) SSD
// parameter against storage performance measures the strength of its
// linear correlation; parameters whose |coefficient| falls below a
// threshold (±0.001 by default) are pruned, and the |coefficient|
// ordering becomes the tuning order of §3.4.
package ridge

import (
	"errors"
	"fmt"
	"math"

	"autoblox/internal/linalg"
)

// Model holds a fitted ridge regression.
type Model struct {
	// Coef holds one weight per feature, in the standardized space when
	// Standardize was set.
	Coef []float64
	// Intercept is the bias term.
	Intercept float64

	standardized bool
	featMean     []float64
	featStd      []float64
}

// Config controls the fit.
type Config struct {
	// Alpha is the L2 penalty (default 1.0).
	Alpha float64
	// Standardize centers/scales features to unit variance before the fit
	// so coefficients are comparable across parameters of very different
	// magnitudes (page counts vs cache bytes). Recommended — AutoBlox
	// compares raw coefficient magnitudes across parameters.
	Standardize bool
}

// Fit solves min_w ||Xw + b - y||² + α||w||² in closed form.
func Fit(x *linalg.Matrix, y []float64, cfg Config) (*Model, error) {
	n, d := x.Rows, x.Cols
	if n == 0 || d == 0 {
		return nil, errors.New("ridge: empty design matrix")
	}
	if len(y) != n {
		return nil, fmt.Errorf("ridge: %d targets for %d samples", len(y), n)
	}
	if cfg.Alpha < 0 {
		return nil, fmt.Errorf("ridge: negative alpha %g", cfg.Alpha)
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 1.0
	}

	m := &Model{standardized: cfg.Standardize}
	work := x
	if cfg.Standardize {
		work, m.featMean, m.featStd = standardize(x)
	}

	// Center y; the intercept absorbs the means.
	var yMean float64
	for _, v := range y {
		yMean += v
	}
	yMean /= float64(n)
	yc := make([]float64, n)
	for i, v := range y {
		yc[i] = v - yMean
	}

	// Center features (if not already standardized).
	xMean := make([]float64, d)
	if !cfg.Standardize {
		for i := 0; i < n; i++ {
			for j, v := range work.Row(i) {
				xMean[j] += v
			}
		}
		for j := range xMean {
			xMean[j] /= float64(n)
		}
		centered := linalg.NewMatrix(n, d)
		for i := 0; i < n; i++ {
			for j, v := range work.Row(i) {
				centered.Set(i, j, v-xMean[j])
			}
		}
		work = centered
	}

	// Normal equations: (XᵀX + αI)w = Xᵀy.
	xt := work.T()
	gram := xt.Mul(work).AddDiag(cfg.Alpha)
	rhs := xt.MulVec(yc)
	w, err := linalg.SolveSPD(gram, rhs)
	if err != nil {
		return nil, fmt.Errorf("ridge: normal equations: %w", err)
	}
	m.Coef = w

	m.Intercept = yMean
	if !cfg.Standardize {
		for j := range w {
			m.Intercept -= w[j] * xMean[j]
		}
	}
	return m, nil
}

// PredictVec evaluates the model on one sample.
func (m *Model) PredictVec(v []float64) float64 {
	s := m.Intercept
	for j, w := range m.Coef {
		xj := v[j]
		if m.standardized {
			xj = (xj - m.featMean[j]) / m.featStd[j]
		}
		s += w * xj
	}
	return s
}

// R2 returns the coefficient of determination on (x, y).
func (m *Model) R2(x *linalg.Matrix, y []float64) float64 {
	var yMean float64
	for _, v := range y {
		yMean += v
	}
	yMean /= float64(len(y))
	var ssRes, ssTot float64
	for i, v := range y {
		p := m.PredictVec(x.Row(i))
		ssRes += (v - p) * (v - p)
		ssTot += (v - yMean) * (v - yMean)
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

func standardize(x *linalg.Matrix) (*linalg.Matrix, []float64, []float64) {
	n, d := x.Rows, x.Cols
	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		for j, v := range x.Row(i) {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	std := make([]float64, d)
	for i := 0; i < n; i++ {
		for j, v := range x.Row(i) {
			dv := v - mean[j]
			std[j] += dv * dv
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(n))
		if std[j] == 0 {
			std[j] = 1 // constant feature: coefficient will be 0 anyway
		}
	}
	out := linalg.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j, v := range x.Row(i) {
			out.Set(i, j, (v-mean[j])/std[j])
		}
	}
	return out, mean, std
}
