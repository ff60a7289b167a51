// Package pca implements Principal Component Analysis as used by the
// AutoBlox workload-clustering pipeline (§3.1 of the paper): each I/O
// trace window is reduced to a small number of dimensions before k-means
// clustering. The paper reduces each window to 5 dimensions, which
// captures ~70% of the explainable variance of their dataset.
package pca

import (
	"errors"
	"fmt"

	"autoblox/internal/linalg"
)

// PCA holds a fitted principal-component model.
type PCA struct {
	// Components holds one principal axis per row (nComponents × nFeatures).
	Components *linalg.Matrix
	// Mean is the per-feature mean subtracted before projection.
	Mean []float64
	// ExplainedVariance holds the eigenvalue (variance) of each kept
	// component, descending.
	ExplainedVariance []float64
	// ExplainedVarianceRatio is ExplainedVariance normalized by the total
	// variance of the training data.
	ExplainedVarianceRatio []float64
}

// Fit computes the top-k principal components of data (rows are samples,
// columns features). k must be between 1 and the number of features.
func Fit(data *linalg.Matrix, k int) (*PCA, error) {
	n, d := data.Rows, data.Cols
	if n == 0 || d == 0 {
		return nil, errors.New("pca: empty data")
	}
	if k < 1 || k > d {
		return nil, fmt.Errorf("pca: k=%d out of range [1,%d]", k, d)
	}

	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}

	// Covariance matrix (d×d).
	cov := linalg.NewMatrix(d, d)
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for a := 0; a < d; a++ {
			da := row[a] - mean[a]
			if da == 0 {
				continue
			}
			for b := a; b < d; b++ {
				cov.Data[a*d+b] += da * (row[b] - mean[b])
			}
		}
	}
	denom := float64(n - 1)
	if n == 1 {
		denom = 1
	}
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov.At(a, b) / denom
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}

	vals, vecs, err := linalg.EigenSym(cov)
	if err != nil {
		return nil, fmt.Errorf("pca: eigendecomposition failed: %w", err)
	}

	var total float64
	for _, v := range vals {
		if v > 0 {
			total += v
		}
	}
	comp := linalg.NewMatrix(k, d)
	ev := make([]float64, k)
	ratio := make([]float64, k)
	for c := 0; c < k; c++ {
		for r := 0; r < d; r++ {
			comp.Set(c, r, vecs.At(r, c))
		}
		ev[c] = vals[c]
		if total > 0 {
			ratio[c] = vals[c] / total
		}
	}
	return &PCA{Components: comp, Mean: mean, ExplainedVariance: ev, ExplainedVarianceRatio: ratio}, nil
}

// Transform projects data (rows are samples) onto the fitted components,
// returning an nSamples × nComponents matrix.
func (p *PCA) Transform(data *linalg.Matrix) (*linalg.Matrix, error) {
	if data.Cols != len(p.Mean) {
		return nil, fmt.Errorf("pca: data has %d features, model fitted on %d", data.Cols, len(p.Mean))
	}
	k := p.Components.Rows
	out := linalg.NewMatrix(data.Rows, k)
	centered := make([]float64, data.Cols)
	for i := 0; i < data.Rows; i++ {
		row := data.Row(i)
		for j := range row {
			centered[j] = row[j] - p.Mean[j]
		}
		for c := 0; c < k; c++ {
			out.Set(i, c, linalg.Dot(p.Components.Row(c), centered))
		}
	}
	return out, nil
}

// FitTransform fits the model and immediately projects the training data.
func FitTransform(data *linalg.Matrix, k int) (*PCA, *linalg.Matrix, error) {
	p, err := Fit(data, k)
	if err != nil {
		return nil, nil, err
	}
	t, err := p.Transform(data)
	if err != nil {
		return nil, nil, err
	}
	return p, t, nil
}
